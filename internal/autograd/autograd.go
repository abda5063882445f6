// Package autograd implements reverse-mode automatic differentiation over
// dense tensors. It replaces the role PyTorch's autograd plays in the
// paper's pipeline: every training step builds a fresh tape of operations
// whose Backward pass accumulates gradients into persistent Params.
//
// The op set is exactly what the Exa.TrkX pipeline needs: affine layers
// over virtual column segments (Linear, which reads the Interaction GNN's
// concatenation residuals and endpoint gathers in place), activations,
// row gather/scatter (message passing on edges), layer normalization, and
// the losses used by the embedding, filter, and GNN stages.
//
// Tapes can be bound to a workspace.Arena (NewTapeArena): every
// activation and gradient buffer the tape creates is then borrowed from
// the pooled workspace instead of the heap, and one arena reset after the
// optimizer step returns the entire step's memory. Node records
// themselves come from a chunked slab, so steady-state training allocates
// only the per-op backward closures.
package autograd

import (
	"fmt"

	"repro/internal/kernels"
	"repro/internal/tensor"
	"repro/internal/workspace"
)

// Param is a persistent trainable parameter. Gradients accumulate into
// Grad across a Backward pass; optimizers consume and zero them.
type Param struct {
	Name  string
	Value *tensor.Dense
	Grad  *tensor.Dense
}

// NewParam allocates a parameter with a zeroed gradient buffer.
func NewParam(name string, value *tensor.Dense) *Param {
	return &Param{
		Name:  name,
		Value: value,
		Grad:  tensor.New(value.Rows(), value.Cols()),
	}
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// Node is a value in the computation graph.
type Node struct {
	Value    *tensor.Dense
	grad     *tensor.Dense
	needGrad bool
	back     func() // propagates n.grad into parent grads; nil for leaves
	tp       *Tape
	// view marks a Value the tape holds no storage for: a parameter's
	// (Use) or another node's (Identity).
	view bool
}

// accum adds g into the node's gradient. The node does not take
// ownership of g: the first contribution is copied into a tape-owned
// buffer, so callers may pass shared tensors (e.g. a child's gradient).
func (n *Node) accum(g *tensor.Dense) {
	if n.grad == nil {
		n.grad = n.tp.alloc(g.Rows(), g.Cols())
		n.grad.CopyFrom(g)
		return
	}
	n.grad.AddInPlace(g)
}

// accumOwned is accum for freshly computed, exclusively owned buffers
// (always tape-allocated scratch): the first contribution is adopted
// without a copy. The caller must not mutate g afterwards.
func (n *Node) accumOwned(g *tensor.Dense) {
	if n.grad == nil {
		n.grad = g
		return
	}
	n.grad.AddInPlace(g)
}

// nodeChunkSize is how many Node records one slab chunk holds.
const nodeChunkSize = 128

// Tape records operations for one forward pass. Tapes are single-use and
// not safe for concurrent mutation; each simulated device builds its own.
// A tape may be Reset and reused for the next step to recycle its node
// bookkeeping (the value/grad buffers are recycled by the arena).
type Tape struct {
	nodes []*Node
	arena *workspace.Arena

	// kc is the intra-op worker budget every kernel recorded on this
	// tape runs under — forward ops and their backward closures alike.
	// The zero value means GOMAXPROCS; trainers that run several tapes
	// concurrently (DDP ranks, engine workers) set a divided budget so
	// rank-level and kernel-level parallelism compose without
	// oversubscription. Results are bitwise identical at every budget.
	kc kernels.Context

	// Chunked node slab: records are handed out from chunks so Reset can
	// rewind and reuse them — a reused tape allocates no node storage at
	// steady state. Chunks are never moved once allocated, so *Node
	// pointers stay valid for the tape's (or reset cycle's) lifetime.
	chunks   [][]Node
	chunk    int // index of the chunk being filled
	chunkPos int // next free record in that chunk
}

// NewTapeArena returns an empty tape whose activation and gradient
// buffers are borrowed from the arena. The caller owns the arena's
// lifecycle: values read off the tape (losses, scores) must be consumed
// before the arena is reset.
func NewTapeArena(a *workspace.Arena) *Tape { return &Tape{arena: a} }

// SetKernels installs the intra-op worker budget for every subsequent
// op on this tape (forward and backward). It survives Reset, so a
// trainer configures it once per rank.
func (t *Tape) SetKernels(kc kernels.Context) { t.kc = kc }

// Reset clears the recorded operations so the tape can be reused for the
// next step, rewinding the node slab and retaining its chunks and the
// list capacity. Consumed node records are zeroed so the previous step's
// backward closures and buffer headers (whose pooled storage the arena
// has recycled) are not kept reachable. It does NOT release buffer
// memory — reset the backing arena for that.
func (t *Tape) Reset() {
	for i := range t.nodes {
		t.nodes[i] = nil
	}
	t.nodes = t.nodes[:0]
	for c := 0; c <= t.chunk && c < len(t.chunks); c++ {
		upTo := nodeChunkSize
		if c == t.chunk {
			upTo = t.chunkPos
		}
		clear(t.chunks[c][:upTo])
	}
	t.chunk, t.chunkPos = 0, 0
}

// alloc returns a zeroed tape-owned matrix, pooled when an arena is
// attached.
func (t *Tape) alloc(rows, cols int) *tensor.Dense {
	return tensor.NewFrom(t.arena, rows, cols)
}

// allocF64 returns a zeroed tape-owned scratch vector.
func (t *Tape) allocF64(n int) []float64 {
	if t.arena == nil {
		return make([]float64, n)
	}
	return t.arena.F64(n)
}

// allocInt returns a zeroed tape-owned scratch int vector.
func (t *Tape) allocInt(n int) []int {
	if t.arena == nil {
		return make([]int, n)
	}
	return t.arena.Int(n)
}

func (t *Tape) newNode(v *tensor.Dense, needGrad bool, back func()) *Node {
	if t.chunk == len(t.chunks) {
		t.chunks = append(t.chunks, make([]Node, nodeChunkSize))
	}
	n := &t.chunks[t.chunk][t.chunkPos]
	t.chunkPos++
	if t.chunkPos == nodeChunkSize {
		t.chunk++
		t.chunkPos = 0
	}
	*n = Node{Value: v, needGrad: needGrad, back: back, tp: t}
	t.nodes = append(t.nodes, n)
	return n
}

// Constant introduces a value that requires no gradient.
func (t *Tape) Constant(v *tensor.Dense) *Node {
	return t.newNode(v, false, nil)
}

// Use binds a persistent Param into this tape; Backward accumulates the
// parameter's gradient into p.Grad.
func (t *Tape) Use(p *Param) *Node {
	var n *Node
	n = t.newNode(p.Value, true, func() {
		p.Grad.AddInPlace(n.grad)
	})
	n.view = true
	return n
}

// Backward seeds the gradient of loss (which must be 1×1) with 1 and
// propagates through the tape in reverse recording order.
func (t *Tape) Backward(loss *Node) {
	if loss.Value.Rows() != 1 || loss.Value.Cols() != 1 {
		panic(fmt.Sprintf("autograd: Backward on non-scalar %dx%d", loss.Value.Rows(), loss.Value.Cols()))
	}
	seed := t.alloc(1, 1)
	seed.Set(0, 0, 1)
	loss.accumOwned(seed)
	for i := len(t.nodes) - 1; i >= 0; i-- {
		n := t.nodes[i]
		if n.grad != nil && n.back != nil {
			n.back()
		}
	}
}
