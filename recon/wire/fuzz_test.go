package wire

import (
	"testing"
)

// FuzzDecodeRequest is the decode fuzz target for the binary request
// format: arbitrary bytes must never panic or over-allocate, and any
// input that decodes successfully must re-encode to the same bytes and
// re-decode to the same value (one canonical encoding per message).
func FuzzDecodeRequest(f *testing.F) {
	seed := func(req *Request) {
		buf, err := AppendRequest(nil, req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	seed(&Request{})
	seed(testRequest())
	seed(&Request{Synthetic: &Synthetic{Count: 1, Seed: 1}})
	seed(&Request{Events: []Event{{Hits: make([]Hit, 0), Features: make([][]float64, 0)}}})
	// Corrupt variants: bad magic, truncation, trailing garbage.
	valid, _ := AppendRequest(nil, testRequest())
	f.Add([]byte{})
	f.Add(valid[:4])
	f.Add(valid[:len(valid)-1])
	f.Add(append(append([]byte(nil), valid...), 0))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})

	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeRequest(data)
		if err != nil {
			return
		}
		buf, err := AppendRequest(nil, req)
		if err != nil {
			t.Fatalf("decoded request fails to re-encode: %v", err)
		}
		if string(buf) != string(data) {
			t.Fatalf("re-encode differs: got %d bytes, input %d bytes", len(buf), len(data))
		}
		// Equality via re-encoded bytes, not DeepEqual: the payload may
		// carry NaNs, whose bit patterns the wire preserves but DeepEqual
		// refuses to call equal.
		again, err := DecodeRequest(buf)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		buf2, err := AppendRequest(nil, again)
		if err != nil {
			t.Fatalf("re-decode re-encode: %v", err)
		}
		if string(buf2) != string(buf) {
			t.Fatal("re-decode changes the message")
		}
	})
}

// FuzzDecodeResponse mirrors FuzzDecodeRequest for the response side,
// which cmd/loadgen and other clients decode from server replies.
func FuzzDecodeResponse(f *testing.F) {
	seed := func(resp *Response) {
		buf, err := AppendResponse(nil, resp)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	seed(&Response{})
	seed(testResponse())
	valid, _ := AppendResponse(nil, testResponse())
	f.Add([]byte{})
	f.Add(valid[:len(valid)-1])
	f.Add(append(append([]byte(nil), valid...), 0))

	f.Fuzz(func(t *testing.T, data []byte) {
		resp, err := DecodeResponse(data)
		if err != nil {
			return
		}
		buf, err := AppendResponse(nil, resp)
		if err != nil {
			t.Fatalf("decoded response fails to re-encode: %v", err)
		}
		if string(buf) != string(data) {
			t.Fatalf("re-encode differs: got %d bytes, input %d bytes", len(buf), len(data))
		}
	})
}
