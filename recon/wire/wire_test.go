package wire

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
)

// testRequest builds a request exercising every field, including float
// bit patterns JSON cannot round-trip (negative zero, subnormals).
func testRequest() *Request {
	return &Request{
		Events: []Event{
			{
				Hits: []Hit{
					{X: 1.5, Y: -2.25, Z: 3.125, R: 2.704163456597992, Phi: -0.982793723247329, Layer: 0, Particle: 7},
					{X: math.Copysign(0, -1), Y: math.SmallestNonzeroFloat64, Z: -1e308, R: 0, Phi: 0, Layer: 9, Particle: -1},
				},
				Features: [][]float64{{0.1, 0.2, 0.3}, {-0.4, 0.5, -0.6}},
				TruthSrc: []int{0},
				TruthDst: []int{1},
			},
			{
				Hits:     make([]Hit, 0),
				Features: make([][]float64, 0),
			},
		},
		Synthetic: &Synthetic{Count: 3, Seed: 0xDEADBEEFCAFE},
	}
}

func testResponse() *Response {
	return &Response{
		Results: []TrackResult{
			{
				NumTracks:       2,
				Tracks:          [][]int{{0, 1, 2}, {3}},
				EdgePrecision:   0.875,
				EdgeRecall:      1,
				TrackEfficiency: 0.5,
				FakeRate:        math.Copysign(0, -1),
			},
			{
				NumTracks: 0,
				Tracks:    make([][]int, 0),
				Error:     "stage \"segment\" panicked",
			},
		},
		Elapsed: 12.75,
	}
}

func TestRequestRoundTrip(t *testing.T) {
	want := testRequest()
	buf, err := AppendRequest(nil, want)
	if err != nil {
		t.Fatalf("AppendRequest: %v", err)
	}
	got, err := DecodeRequest(buf)
	if err != nil {
		t.Fatalf("DecodeRequest: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	// Re-encoding the decoded form must be byte-identical: the format has
	// exactly one encoding per message.
	buf2, err := AppendRequest(nil, got)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if string(buf2) != string(buf) {
		t.Fatal("re-encoded request differs from original bytes")
	}
}

func TestRequestRoundTripNoEvents(t *testing.T) {
	want := &Request{Synthetic: &Synthetic{Count: 1, Seed: 42}}
	buf, err := AppendRequest(nil, want)
	if err != nil {
		t.Fatalf("AppendRequest: %v", err)
	}
	got, err := DecodeRequest(buf)
	if err != nil {
		t.Fatalf("DecodeRequest: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch: got %+v want %+v", got, want)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	want := testResponse()
	buf, err := AppendResponse(nil, want)
	if err != nil {
		t.Fatalf("AppendResponse: %v", err)
	}
	got, err := DecodeResponse(buf)
	if err != nil {
		t.Fatalf("DecodeResponse: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	buf2, err := AppendResponse(nil, got)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if string(buf2) != string(buf) {
		t.Fatal("re-encoded response differs from original bytes")
	}
}

func TestAppendRequestRejectsMalformedEvents(t *testing.T) {
	cases := []struct {
		name string
		req  *Request
	}{
		{"feature rows != hits", &Request{Events: []Event{{
			Hits: []Hit{{}}, Features: nil,
		}}}},
		{"ragged feature row", &Request{Events: []Event{{
			Hits: []Hit{{}, {}}, Features: [][]float64{{1, 2}, {3}},
		}}}},
		{"truth length mismatch", &Request{Events: []Event{{
			Hits: []Hit{{}}, Features: [][]float64{{1}}, TruthSrc: []int{0}, TruthDst: nil,
		}}}},
		{"negative truth index", &Request{Events: []Event{{
			Hits: []Hit{{}}, Features: [][]float64{{1}}, TruthSrc: []int{-1}, TruthDst: []int{0},
		}}}},
		{"negative synthetic count", &Request{Synthetic: &Synthetic{Count: -1}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := AppendRequest(nil, tc.req); !errors.Is(err, ErrBadMessage) {
				t.Fatalf("err = %v, want ErrBadMessage", err)
			}
		})
	}
}

func TestDecodeRequestRejectsCorruption(t *testing.T) {
	valid, err := AppendRequest(nil, testRequest())
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(mutate func([]byte) []byte) []byte {
		buf := append([]byte(nil), valid...)
		return mutate(buf)
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"bad magic", corrupt(func(b []byte) []byte { b[0] ^= 0xFF; return b })},
		{"response magic", func() []byte {
			b, _ := AppendResponse(nil, testResponse())
			return b
		}()},
		{"truncated mid-frame", valid[:len(valid)/2]},
		{"trailing bytes", corrupt(func(b []byte) []byte { return append(b, 0) })},
		{"event count beyond buffer", corrupt(func(b []byte) []byte {
			b[4], b[5], b[6], b[7] = 0x00, 0xFF, 0xFF, 0xFF
			return b
		})},
		{"bad synthetic flag", corrupt(func(b []byte) []byte {
			// The synthetic flag is 13 bytes from the end (u8 + u32 + u64).
			b[len(b)-13] = 2
			return b
		})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeRequest(tc.data); !errors.Is(err, ErrBadMessage) {
				t.Fatalf("err = %v, want ErrBadMessage", err)
			}
		})
	}
}

func TestDecodeRequestRejectsHostileCounts(t *testing.T) {
	// A message declaring a huge hit count inside a tiny frame must fail
	// on the size check, not attempt the allocation.
	payload := appendU32(nil, 0xFFFFFF) // numHits way beyond frame size
	payload = appendU32(payload, 3)     // featWidth
	framed, err := appendFrame(nil, payload, maxFrameBytes)
	if err != nil {
		t.Fatal(err)
	}
	msg := appendU32(nil, requestMagic)
	msg = appendU32(msg, 1)
	msg = append(msg, framed...)
	msg = append(msg, 0)
	_, derr := DecodeRequest(msg)
	if !errors.Is(derr, ErrBadMessage) {
		t.Fatalf("err = %v, want ErrBadMessage", derr)
	}
	if !strings.Contains(derr.Error(), "event 0") {
		t.Fatalf("error should locate the bad event: %v", derr)
	}
}

func TestDecodeResponseRejectsCorruption(t *testing.T) {
	valid, err := AppendResponse(nil, testResponse())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"request magic", func() []byte {
			b, _ := AppendRequest(nil, testRequest())
			return b
		}()},
		{"truncated elapsed", valid[:len(valid)-4]},
		{"trailing bytes", append(append([]byte(nil), valid...), 0xAA)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeResponse(tc.data); !errors.Is(err, ErrBadMessage) {
				t.Fatalf("err = %v, want ErrBadMessage", err)
			}
		})
	}
}

func TestBinaryPreservesFloatBits(t *testing.T) {
	// The whole point of the binary encoding: exact bit patterns survive,
	// including ones JSON floats mangle or reject.
	values := []float64{
		math.Copysign(0, -1),
		math.SmallestNonzeroFloat64,
		math.MaxFloat64,
		0.1, // not exactly representable in decimal
	}
	for _, v := range values {
		req := &Request{Events: []Event{{
			Hits:     []Hit{{X: v, Y: v, Z: v, R: v, Phi: v}},
			Features: [][]float64{{v}},
		}}}
		buf, err := AppendRequest(nil, req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeRequest(buf)
		if err != nil {
			t.Fatal(err)
		}
		h := got.Events[0].Hits[0]
		for name, g := range map[string]float64{"x": h.X, "y": h.Y, "z": h.Z, "r": h.R, "phi": h.Phi, "feat": got.Events[0].Features[0][0]} {
			if math.Float64bits(g) != math.Float64bits(v) {
				t.Fatalf("%s: bits %016x, want %016x", name, math.Float64bits(g), math.Float64bits(v))
			}
		}
	}
}
