package wire

import (
	"encoding/json"
	"strconv"
	"sync"
)

// DecodeRequestJSON decodes a JSON request body. Its result, value and
// error alike, is what json.Unmarshal into a fresh Request gives.
//
// A body in the shape clients send is decoded in one pass over the
// bytes, with no reflection and a fixed number of allocations per event
// whatever its hit count. Keys must be exact and lower-case, numbers
// must fit their field, and nothing may follow the object. Anything else
// goes to json.Unmarshal: a null, an unknown, duplicate, escaped or
// differently-cased key, a number out of range or not an integer where
// the field wants one, trailing bytes, or a syntax error.
func DecodeRequestJSON(data []byte) (*Request, error) {
	if req, ok := decodeRequestFast(data); ok {
		return req, nil
	}
	req := &Request{}
	if err := json.Unmarshal(data, req); err != nil {
		return nil, err
	}
	return req, nil
}

// decodeRequestFast is the one-pass decoder. It reports false, and
// its request means nothing, when data leaves the shape it takes.
func decodeRequestFast(data []byte) (*Request, bool) {
	d := decoders.Get().(*decoder)
	d.buf, d.off = data, 0
	req, ok := d.request()
	d.buf = nil
	decoders.Put(d)
	return req, ok
}

// decoders hold the scratch arrays an event is parsed into before it is
// copied into slices of its exact size.
var decoders = sync.Pool{New: func() any { return new(decoder) }}

// decoder is a cursor over one JSON body. Every method reports false
// when the bytes at the cursor leave the fast path's shape; the caller
// then gives up on the whole body.
type decoder struct {
	buf []byte
	off int

	hits    []Hit
	floats  []float64
	rowEnds []int
	ints    []int
}

func (d *decoder) request() (*Request, bool) {
	req := &Request{}
	var seen uint
	ok := d.members(func(key []byte) bool {
		switch string(key) {
		case "events":
			req.Events = []Event{}
			return once(&seen, 1) && d.elements(func() bool {
				req.Events = append(req.Events, Event{})
				return d.event(&req.Events[len(req.Events)-1])
			})
		case "synthetic":
			req.Synthetic = &Synthetic{}
			return once(&seen, 2) && d.synthetic(req.Synthetic)
		}
		return false
	})
	d.space()
	return req, ok && d.off == len(d.buf)
}

func (d *decoder) synthetic(s *Synthetic) bool {
	var seen uint
	return d.members(func(key []byte) bool {
		switch string(key) {
		case "count":
			return once(&seen, 1) && d.int(&s.Count)
		case "seed":
			return once(&seen, 2) && d.uint64(&s.Seed)
		}
		return false
	})
}

func (d *decoder) event(ev *Event) bool {
	var seen uint
	return d.members(func(key []byte) bool {
		switch string(key) {
		case "hits":
			return once(&seen, 1) && d.hitList(&ev.Hits)
		case "features":
			return once(&seen, 2) && d.featureRows(&ev.Features)
		case "truth_src":
			return once(&seen, 4) && d.intList(&ev.TruthSrc)
		case "truth_dst":
			return once(&seen, 8) && d.intList(&ev.TruthDst)
		}
		return false
	})
}

func (d *decoder) hitList(out *[]Hit) bool {
	d.hits = d.hits[:0]
	ok := d.elements(func() bool {
		d.hits = append(d.hits, Hit{})
		return d.hit(&d.hits[len(d.hits)-1])
	})
	*out = append(make([]Hit, 0, len(d.hits)), d.hits...)
	return ok
}

func (d *decoder) hit(h *Hit) bool {
	var seen uint
	return d.members(func(key []byte) bool {
		switch string(key) {
		case "x":
			return once(&seen, 1) && d.float(&h.X)
		case "y":
			return once(&seen, 2) && d.float(&h.Y)
		case "z":
			return once(&seen, 4) && d.float(&h.Z)
		case "r":
			return once(&seen, 8) && d.float(&h.R)
		case "phi":
			return once(&seen, 16) && d.float(&h.Phi)
		case "layer":
			return once(&seen, 32) && d.int(&h.Layer)
		case "particle":
			return once(&seen, 64) && d.int(&h.Particle)
		}
		return false
	})
}

// featureRows gives every row a capped window of one flat array, so an
// append to one row cannot write into the next.
func (d *decoder) featureRows(out *[][]float64) bool {
	d.floats, d.rowEnds = d.floats[:0], d.rowEnds[:0]
	ok := d.elements(func() bool {
		ok := d.elements(func() bool {
			var v float64
			ok := d.float(&v)
			d.floats = append(d.floats, v)
			return ok
		})
		d.rowEnds = append(d.rowEnds, len(d.floats))
		return ok
	})
	flat := append(make([]float64, 0, len(d.floats)), d.floats...)
	rows := make([][]float64, len(d.rowEnds))
	lo := 0
	for i, hi := range d.rowEnds {
		rows[i] = flat[lo:hi:hi]
		lo = hi
	}
	*out = rows
	return ok
}

func (d *decoder) intList(out *[]int) bool {
	d.ints = d.ints[:0]
	ok := d.elements(func() bool {
		var v int
		ok := d.int(&v)
		d.ints = append(d.ints, v)
		return ok
	})
	*out = append(make([]int, 0, len(d.ints)), d.ints...)
	return ok
}

// once sets bit in seen and reports whether it was clear: a key seen
// twice leaves the fast path.
func once(seen *uint, bit uint) bool {
	if *seen&bit != 0 {
		return false
	}
	*seen |= bit
	return true
}

// members walks the object at the cursor, calling member with each key
// once the cursor is on its value.
func (d *decoder) members(member func(key []byte) bool) bool {
	if !d.consume('{') {
		return false
	}
	if d.consume('}') {
		return true
	}
	for {
		key, ok := d.key()
		if !ok || !d.consume(':') || !member(key) {
			return false
		}
		if !d.consume(',') {
			return d.consume('}')
		}
	}
}

// elements walks the array at the cursor, calling element with the
// cursor on each value. The callers turn an empty array into an empty
// non-nil slice, as encoding/json does.
func (d *decoder) elements(element func() bool) bool {
	if !d.consume('[') {
		return false
	}
	if d.consume(']') {
		return true
	}
	for {
		if !element() {
			return false
		}
		if !d.consume(',') {
			return d.consume(']')
		}
	}
}

// key reads a member name. A name with an escape is refused: none of
// the fast path's keys needs one.
func (d *decoder) key() ([]byte, bool) {
	if !d.consume('"') {
		return nil, false
	}
	start := d.off
	for d.off < len(d.buf) {
		switch d.buf[d.off] {
		case '"':
			d.off++
			return d.buf[start : d.off-1], true
		case '\\':
			return nil, false
		}
		d.off++
	}
	return nil, false
}

func (d *decoder) float(v *float64) bool {
	text, ok := d.number()
	if !ok {
		return false
	}
	f, err := strconv.ParseFloat(string(text), 64)
	*v = f
	return err == nil
}

func (d *decoder) int(v *int) bool {
	text, ok := d.number()
	if !ok {
		return false
	}
	i, err := strconv.ParseInt(string(text), 10, strconv.IntSize)
	*v = int(i)
	return err == nil
}

func (d *decoder) uint64(v *uint64) bool {
	text, ok := d.number()
	if !ok {
		return false
	}
	u, err := strconv.ParseUint(string(text), 10, 64)
	*v = u
	return err == nil
}

// number reads the JSON number at the cursor and returns its text,
// checked against the JSON grammar (strconv alone accepts more: "01",
// ".5", "0x1p3", "Inf").
func (d *decoder) number() ([]byte, bool) {
	d.space()
	b, i := d.buf, d.off
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		return nil, false
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			return nil, false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return nil, false
		}
		i = j
	}
	text := b[d.off:i]
	d.off = i
	return text, true
}

// digits returns the index of the first non-digit at or after b[i].
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// consume skips whitespace and then c, reporting whether c was there.
func (d *decoder) consume(c byte) bool {
	d.space()
	if d.off < len(d.buf) && d.buf[d.off] == c {
		d.off++
		return true
	}
	return false
}

// space skips JSON whitespace.
func (d *decoder) space() {
	for d.off < len(d.buf) {
		switch d.buf[d.off] {
		case ' ', '\t', '\n', '\r':
			d.off++
		default:
			return
		}
	}
}
