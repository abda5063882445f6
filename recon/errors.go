package recon

import (
	"errors"
	"fmt"
)

// ErrOverloaded is returned by Engine entry points when the admission
// window (workers + queueDepth in-flight events) is full: the request is
// rejected immediately instead of queueing without bound. Servers map it
// to HTTP 429 with a Retry-After hint; clients should back off and
// retry.
var ErrOverloaded = errors.New("recon: engine overloaded, admission queue full")

// ErrDraining is returned (and served as HTTP 503) once a Server has
// begun graceful shutdown: in-flight requests finish, new work is
// rejected.
var ErrDraining = errors.New("recon: server draining")

// StageError is a per-event stage failure, including a panic recovered
// from a stage implementation. One poisoned event degrades exactly one
// result: batch siblings keep their slots, while the failing event's
// slot stays nil and the call returns the StageError.
type StageError struct {
	Stage string // which stage failed: embed, build, filter, classify, extract, engine
	Event int    // index within the batch, -1 when unknown
	Panic any    // the recovered panic value, nil for ordinary errors
	Err   error  // the underlying error, nil for pure panics
	Stack []byte // goroutine stack captured at the recovery point
}

func (e *StageError) Error() string {
	where := e.Stage
	if e.Event >= 0 {
		where = fmt.Sprintf("%s, event %d", e.Stage, e.Event)
	}
	if e.Panic != nil {
		return fmt.Sprintf("recon: stage panic (%s): %v", where, e.Panic)
	}
	return fmt.Sprintf("recon: stage failure (%s): %v", where, e.Err)
}

// Unwrap exposes the underlying error to errors.Is/As chains.
func (e *StageError) Unwrap() error { return e.Err }

// IsPanic reports whether the failure was a recovered panic.
func (e *StageError) IsPanic() bool { return e.Panic != nil }

// AsStageError extracts a *StageError from an error chain, or nil.
func AsStageError(err error) *StageError {
	var se *StageError
	if errors.As(err, &se) {
		return se
	}
	return nil
}
