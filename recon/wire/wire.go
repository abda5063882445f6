// Package wire defines the /v1/reconstruct wire surface shared by
// recon.Server and its clients (cmd/loadgen and external callers):
// the JSON DTOs and a compact binary encoding of the same messages.
//
// JSON is the readable default. DecodeRequestJSON (json.go) reads a
// request in the shape clients send in one pass over the bytes, with a
// fixed number of allocations per event, and hands anything else to
// encoding/json; either way the result, value and error text alike, is
// json.Unmarshal's. Float parsing is still most of its cost. The binary
// format exists because hit payloads are overwhelmingly float arrays:
// it carries IEEE-754 bits, so a request decodes without parsing. The
// binary layout
// is built from length-prefixed frames (frame.go: 4-byte big-endian
// length headers, a 64 MiB per-frame cap so four bytes of hostile input
// can never demand a gigabyte allocation):
//
//	request  := magic "RBQ1" | u32 eventCount | eventCount event frames
//	            | u8 hasSynthetic | [u32 count | u64 seed]
//	event    := frame( u32 numHits | u32 featWidth
//	            | numHits × (f64 x,y,z,r,phi | i32 layer | i32 particle)
//	            | numHits·featWidth × f64 feature
//	            | u32 truthCount | truthCount × (u32 src | u32 dst) )
//	response := magic "RBS1" | u32 resultCount | resultCount result frames
//	            | f64 elapsedMs
//	result   := frame( u32 numTracks | numTracks × (u32 n | n × u32 hit)
//	            | f64 edgePrecision | f64 edgeRecall
//	            | f64 trackEfficiency | f64 fakeRate
//	            | u32 errLen | errLen bytes )
//
// All integers are big-endian; floats are IEEE-754 bit patterns via
// math.Float64bits, so a decode-encode round trip is byte-identical and
// float payloads cross the wire bit-exact (JSON cannot promise either).
// Every frame's interior is validated against its exact expected size
// before any allocation proportional to a declared count.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ContentTypeBinary is the negotiated media type of the binary encoding.
const ContentTypeBinary = "application/x-recon-bin"

// ContentTypeJSON is the default media type of the JSON encoding.
const ContentTypeJSON = "application/json"

const (
	requestMagic  = 0x52425131 // "RBQ1"
	responseMagic = 0x52425331 // "RBS1"

	// maxCount bounds any declared collection size before its frames are
	// even looked at (each event costs at least one frame header, so a
	// count beyond the remaining bytes is provably corrupt anyway).
	maxCount = 1 << 24
)

// ErrBadMessage reports a structurally invalid binary message.
var ErrBadMessage = errors.New("wire: malformed binary message")

// Hit is one detector hit on the wire. R and Phi are optional in JSON;
// when both are zero the server derives them from X and Y (sending them
// preserves bit-exact cylindrical coordinates across the roundtrip; the
// binary encoding always carries them).
type Hit struct {
	X        float64 `json:"x"`
	Y        float64 `json:"y"`
	Z        float64 `json:"z"`
	R        float64 `json:"r,omitempty"`
	Phi      float64 `json:"phi,omitempty"`
	Layer    int     `json:"layer"`
	Particle int     `json:"particle"` // -1 for noise / unknown
}

// Event is one collision event on the wire. Truth edges are optional;
// without them the response's quality metrics are zero.
type Event struct {
	Hits     []Hit       `json:"hits"`
	Features [][]float64 `json:"features"`
	TruthSrc []int       `json:"truth_src,omitempty"`
	TruthDst []int       `json:"truth_dst,omitempty"`
}

// Synthetic asks the server to generate events from its configured
// detector spec instead of shipping them over the wire — handy for
// smoke tests and load generation.
type Synthetic struct {
	Count int    `json:"count"`
	Seed  uint64 `json:"seed"`
}

// Request is the POST /v1/reconstruct body: explicit events, synthetic
// events, or both (synthetic are appended).
type Request struct {
	Events    []Event    `json:"events,omitempty"`
	Synthetic *Synthetic `json:"synthetic,omitempty"`
}

// TrackResult is one event's reconstruction on the wire.
type TrackResult struct {
	NumTracks       int     `json:"num_tracks"`
	Tracks          [][]int `json:"tracks"`
	EdgePrecision   float64 `json:"edge_precision"`
	EdgeRecall      float64 `json:"edge_recall"`
	TrackEfficiency float64 `json:"track_efficiency"`
	FakeRate        float64 `json:"fake_rate"`
	Error           string  `json:"error,omitempty"`
}

// Response is the POST /v1/reconstruct reply.
type Response struct {
	Results []TrackResult `json:"results"`
	Elapsed float64       `json:"elapsed_ms"`
}

// hitBytes is one encoded Hit: five f64 coordinates plus two i32 tags.
const hitBytes = 5*8 + 2*4

// appendU32/appendU64/appendF64 are the primitive emitters; everything
// is big-endian to match the frame headers.
func appendU32(dst []byte, v uint32) []byte {
	return binary.BigEndian.AppendUint32(dst, v)
}

func appendU64(dst []byte, v uint64) []byte {
	return binary.BigEndian.AppendUint64(dst, v)
}

func appendF64(dst []byte, v float64) []byte {
	return binary.BigEndian.AppendUint64(dst, math.Float64bits(v))
}

// AppendRequest appends the binary encoding of req to dst and returns
// the extended slice. It fails only when a single event's frame would
// exceed the 64 MiB frame cap or a count field overflows its u32.
func AppendRequest(dst []byte, req *Request) ([]byte, error) {
	if len(req.Events) > maxCount {
		return dst, fmt.Errorf("%w: %d events", ErrBadMessage, len(req.Events))
	}
	dst = appendU32(dst, requestMagic)
	dst = appendU32(dst, uint32(len(req.Events)))
	var scratch []byte
	for i := range req.Events {
		var err error
		scratch, err = appendEventPayload(scratch[:0], &req.Events[i])
		if err != nil {
			return dst, fmt.Errorf("event %d: %w", i, err)
		}
		dst, err = appendFrame(dst, scratch, maxFrameBytes)
		if err != nil {
			return dst, fmt.Errorf("event %d: %w", i, err)
		}
	}
	if req.Synthetic == nil {
		return append(dst, 0), nil
	}
	dst = append(dst, 1)
	if req.Synthetic.Count < 0 || req.Synthetic.Count > maxCount {
		return dst, fmt.Errorf("%w: synthetic count %d", ErrBadMessage, req.Synthetic.Count)
	}
	dst = appendU32(dst, uint32(req.Synthetic.Count))
	dst = appendU64(dst, req.Synthetic.Seed)
	return dst, nil
}

func appendEventPayload(dst []byte, ev *Event) ([]byte, error) {
	n := len(ev.Hits)
	if len(ev.Features) != n {
		return dst, fmt.Errorf("%w: %d feature rows for %d hits", ErrBadMessage, len(ev.Features), n)
	}
	width := 0
	if n > 0 {
		width = len(ev.Features[0])
	}
	dst = appendU32(dst, uint32(n))
	dst = appendU32(dst, uint32(width))
	for _, h := range ev.Hits {
		dst = appendF64(dst, h.X)
		dst = appendF64(dst, h.Y)
		dst = appendF64(dst, h.Z)
		dst = appendF64(dst, h.R)
		dst = appendF64(dst, h.Phi)
		dst = appendU32(dst, uint32(int32(h.Layer)))
		dst = appendU32(dst, uint32(int32(h.Particle)))
	}
	for i, row := range ev.Features {
		if len(row) != width {
			return dst, fmt.Errorf("%w: ragged feature row %d (%d, want %d)", ErrBadMessage, i, len(row), width)
		}
		for _, v := range row {
			dst = appendF64(dst, v)
		}
	}
	if len(ev.TruthSrc) != len(ev.TruthDst) {
		return dst, fmt.Errorf("%w: truth_src/truth_dst length mismatch", ErrBadMessage)
	}
	dst = appendU32(dst, uint32(len(ev.TruthSrc)))
	for k := range ev.TruthSrc {
		if ev.TruthSrc[k] < 0 || ev.TruthDst[k] < 0 {
			return dst, fmt.Errorf("%w: negative truth edge index", ErrBadMessage)
		}
		dst = appendU32(dst, uint32(ev.TruthSrc[k]))
		dst = appendU32(dst, uint32(ev.TruthDst[k]))
	}
	return dst, nil
}

// AppendResponse appends the binary encoding of resp to dst.
func AppendResponse(dst []byte, resp *Response) ([]byte, error) {
	if len(resp.Results) > maxCount {
		return dst, fmt.Errorf("%w: %d results", ErrBadMessage, len(resp.Results))
	}
	dst = appendU32(dst, responseMagic)
	dst = appendU32(dst, uint32(len(resp.Results)))
	var scratch []byte
	for i := range resp.Results {
		var err error
		scratch, err = appendResultPayload(scratch[:0], &resp.Results[i])
		if err != nil {
			return dst, fmt.Errorf("result %d: %w", i, err)
		}
		dst, err = appendFrame(dst, scratch, maxFrameBytes)
		if err != nil {
			return dst, fmt.Errorf("result %d: %w", i, err)
		}
	}
	return appendF64(dst, resp.Elapsed), nil
}

func appendResultPayload(dst []byte, tr *TrackResult) ([]byte, error) {
	if len(tr.Tracks) > maxCount {
		return dst, fmt.Errorf("%w: %d tracks", ErrBadMessage, len(tr.Tracks))
	}
	dst = appendU32(dst, uint32(len(tr.Tracks)))
	for _, track := range tr.Tracks {
		dst = appendU32(dst, uint32(len(track)))
		for _, hit := range track {
			if hit < 0 {
				return dst, fmt.Errorf("%w: negative hit index", ErrBadMessage)
			}
			dst = appendU32(dst, uint32(hit))
		}
	}
	dst = appendF64(dst, tr.EdgePrecision)
	dst = appendF64(dst, tr.EdgeRecall)
	dst = appendF64(dst, tr.TrackEfficiency)
	dst = appendF64(dst, tr.FakeRate)
	dst = appendU32(dst, uint32(len(tr.Error)))
	return append(dst, tr.Error...), nil
}

// reader is a bounds-checked big-endian cursor over one buffer.
type reader struct {
	buf []byte
	off int
}

func (r *reader) remaining() int { return len(r.buf) - r.off }

func (r *reader) u32() (uint32, error) {
	if r.remaining() < 4 {
		return 0, fmt.Errorf("%w: truncated u32", ErrBadMessage)
	}
	v := binary.BigEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v, nil
}

func (r *reader) u64() (uint64, error) {
	if r.remaining() < 8 {
		return 0, fmt.Errorf("%w: truncated u64", ErrBadMessage)
	}
	v := binary.BigEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v, nil
}

func (r *reader) f64() (float64, error) {
	v, err := r.u64()
	return math.Float64frombits(v), err
}

func (r *reader) byte() (byte, error) {
	if r.remaining() < 1 {
		return 0, fmt.Errorf("%w: truncated byte", ErrBadMessage)
	}
	b := r.buf[r.off]
	r.off++
	return b, nil
}

// frame consumes one length-prefixed frame.
func (r *reader) frame() ([]byte, error) {
	payload, rest, err := decodeFrame(r.buf[r.off:], maxFrameBytes)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadMessage, err)
	}
	r.off = len(r.buf) - len(rest)
	return payload, nil
}

// count validates a declared collection size against what the buffer
// could possibly hold (minBytes per element) before anything allocates.
func (r *reader) count(n uint32, minBytes int) (int, error) {
	if n > maxCount || int(n)*minBytes > r.remaining() {
		return 0, fmt.Errorf("%w: count %d exceeds remaining %d bytes", ErrBadMessage, n, r.remaining())
	}
	return int(n), nil
}

// DecodeRequest decodes one binary request. The input must contain
// exactly one message — trailing bytes are an error, so a truncated or
// concatenated body never silently half-parses.
func DecodeRequest(data []byte) (*Request, error) {
	r := &reader{buf: data}
	magic, err := r.u32()
	if err != nil {
		return nil, err
	}
	if magic != requestMagic {
		return nil, fmt.Errorf("%w: bad request magic %08x", ErrBadMessage, magic)
	}
	rawCount, err := r.u32()
	if err != nil {
		return nil, err
	}
	count, err := r.count(rawCount, frameHeaderBytes)
	if err != nil {
		return nil, err
	}
	req := &Request{}
	if count > 0 {
		req.Events = make([]Event, count)
	}
	for i := 0; i < count; i++ {
		payload, err := r.frame()
		if err != nil {
			return nil, fmt.Errorf("event %d: %w", i, err)
		}
		if err := decodeEventPayload(payload, &req.Events[i]); err != nil {
			return nil, fmt.Errorf("event %d: %w", i, err)
		}
	}
	hasSynth, err := r.byte()
	if err != nil {
		return nil, err
	}
	switch hasSynth {
	case 0:
	case 1:
		cnt, err := r.u32()
		if err != nil {
			return nil, err
		}
		if cnt > maxCount {
			return nil, fmt.Errorf("%w: synthetic count %d", ErrBadMessage, cnt)
		}
		seed, err := r.u64()
		if err != nil {
			return nil, err
		}
		req.Synthetic = &Synthetic{Count: int(cnt), Seed: seed}
	default:
		return nil, fmt.Errorf("%w: synthetic flag %d", ErrBadMessage, hasSynth)
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadMessage, r.remaining())
	}
	return req, nil
}

func decodeEventPayload(payload []byte, ev *Event) error {
	r := &reader{buf: payload}
	rawHits, err := r.u32()
	if err != nil {
		return err
	}
	numHits, err := r.count(rawHits, hitBytes)
	if err != nil {
		return err
	}
	rawWidth, err := r.u32()
	if err != nil {
		return err
	}
	// width must be zero for a hitless event — the encoder never emits
	// anything else, and insisting keeps the encoding canonical (exactly
	// one byte sequence per message).
	if rawWidth > maxCount || (numHits == 0 && rawWidth != 0) {
		return fmt.Errorf("%w: feature width %d", ErrBadMessage, rawWidth)
	}
	width := int(rawWidth)
	// The frame interior has an exactly computable size; insist on it so
	// corrupt counts fail before any proportional allocation.
	need := numHits*hitBytes + numHits*width*8 + 4
	if r.remaining() < need {
		return fmt.Errorf("%w: event needs %d bytes, frame holds %d", ErrBadMessage, need, r.remaining())
	}
	ev.Hits = make([]Hit, numHits)
	for i := range ev.Hits {
		h := &ev.Hits[i]
		h.X, _ = r.f64()
		h.Y, _ = r.f64()
		h.Z, _ = r.f64()
		h.R, _ = r.f64()
		var layer, particle uint32
		h.Phi, _ = r.f64()
		layer, _ = r.u32()
		particle, err = r.u32()
		if err != nil {
			return err
		}
		h.Layer = int(int32(layer))
		h.Particle = int(int32(particle))
	}
	ev.Features = make([][]float64, numHits)
	flat := make([]float64, numHits*width)
	for i := range ev.Features {
		row := flat[i*width : (i+1)*width : (i+1)*width]
		for j := range row {
			row[j], err = r.f64()
		}
		ev.Features[i] = row
	}
	if err != nil {
		return err
	}
	rawTruth, err := r.u32()
	if err != nil {
		return err
	}
	truth, err := r.count(rawTruth, 8)
	if err != nil {
		return err
	}
	if truth > 0 {
		ev.TruthSrc = make([]int, truth)
		ev.TruthDst = make([]int, truth)
	}
	for k := 0; k < truth; k++ {
		src, _ := r.u32()
		dst, err := r.u32()
		if err != nil {
			return err
		}
		ev.TruthSrc[k] = int(src)
		ev.TruthDst[k] = int(dst)
	}
	if r.remaining() != 0 {
		return fmt.Errorf("%w: %d trailing bytes in event frame", ErrBadMessage, r.remaining())
	}
	return nil
}

// DecodeResponse decodes one binary response. Like DecodeRequest, the
// input must contain exactly one message.
func DecodeResponse(data []byte) (*Response, error) {
	r := &reader{buf: data}
	magic, err := r.u32()
	if err != nil {
		return nil, err
	}
	if magic != responseMagic {
		return nil, fmt.Errorf("%w: bad response magic %08x", ErrBadMessage, magic)
	}
	rawCount, err := r.u32()
	if err != nil {
		return nil, err
	}
	count, err := r.count(rawCount, frameHeaderBytes)
	if err != nil {
		return nil, err
	}
	resp := &Response{}
	if count > 0 {
		resp.Results = make([]TrackResult, count)
	}
	for i := 0; i < count; i++ {
		payload, err := r.frame()
		if err != nil {
			return nil, fmt.Errorf("result %d: %w", i, err)
		}
		if err := decodeResultPayload(payload, &resp.Results[i]); err != nil {
			return nil, fmt.Errorf("result %d: %w", i, err)
		}
	}
	if resp.Elapsed, err = r.f64(); err != nil {
		return nil, err
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadMessage, r.remaining())
	}
	return resp, nil
}

func decodeResultPayload(payload []byte, tr *TrackResult) error {
	r := &reader{buf: payload}
	rawTracks, err := r.u32()
	if err != nil {
		return err
	}
	numTracks, err := r.count(rawTracks, 4)
	if err != nil {
		return err
	}
	tr.Tracks = make([][]int, numTracks)
	for i := range tr.Tracks {
		rawHits, err := r.u32()
		if err != nil {
			return err
		}
		n, err := r.count(rawHits, 4)
		if err != nil {
			return err
		}
		track := make([]int, n)
		for j := range track {
			hit, err := r.u32()
			if err != nil {
				return err
			}
			track[j] = int(hit)
		}
		tr.Tracks[i] = track
	}
	tr.NumTracks = numTracks
	if tr.EdgePrecision, err = r.f64(); err != nil {
		return err
	}
	if tr.EdgeRecall, err = r.f64(); err != nil {
		return err
	}
	if tr.TrackEfficiency, err = r.f64(); err != nil {
		return err
	}
	if tr.FakeRate, err = r.f64(); err != nil {
		return err
	}
	rawErr, err := r.u32()
	if err != nil {
		return err
	}
	n, err := r.count(rawErr, 1)
	if err != nil {
		return err
	}
	tr.Error = string(r.buf[r.off : r.off+n])
	r.off += n
	if r.remaining() != 0 {
		return fmt.Errorf("%w: %d trailing bytes in result frame", ErrBadMessage, r.remaining())
	}
	return nil
}
