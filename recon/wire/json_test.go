package wire

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"regexp"
	"strconv"
	"sync"
	"testing"

	"repro/internal/detector"
)

// detectorRequest is the one-event request recon.EventToJSON builds
// from a generated Ex3Like(scale) event (recon imports this package, so
// the conversion is spelled out here).
func detectorRequest(scale float64, seed uint64) *Request {
	spec := detector.Ex3Like(scale)
	spec.NumEvents = 1
	ev := detector.Generate(spec, seed).Events[0]
	we := Event{
		Hits:     make([]Hit, len(ev.Hits)),
		Features: make([][]float64, len(ev.Hits)),
		TruthSrc: append([]int(nil), ev.TruthSrc...),
		TruthDst: append([]int(nil), ev.TruthDst...),
	}
	for i, h := range ev.Hits {
		we.Hits[i] = Hit{X: h.X, Y: h.Y, Z: h.Z, R: h.R, Phi: h.Phi, Layer: h.Layer, Particle: h.Particle}
		we.Features[i] = append([]float64(nil), ev.Features.Row(i)...)
	}
	return &Request{Events: []Event{we}}
}

// syntheticEvent is an n-hit event with every field set.
func syntheticEvent(n int) Event {
	ev := Event{Hits: make([]Hit, n), Features: make([][]float64, n)}
	for i := range ev.Hits {
		f := float64(i)
		ev.Hits[i] = Hit{X: 0.37 * f, Y: -1.5 + f, Z: 1e-3 * f, R: 2.5, Phi: -0.25 * f, Layer: i % 10, Particle: i/10 - 1}
		ev.Features[i] = []float64{f / 3, -f, 1e6 * f}
		if i > 0 {
			ev.TruthSrc = append(ev.TruthSrc, i-1)
			ev.TruthDst = append(ev.TruthDst, i)
		}
	}
	return ev
}

func mustMarshal(tb testing.TB, v any, indent bool) []byte {
	tb.Helper()
	var b []byte
	var err error
	if indent {
		b, err = json.MarshalIndent(v, "", "  ")
	} else {
		b, err = json.Marshal(v)
	}
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// clientBodies are the shapes clients send, recon.EventToJSON's among
// them, compact and pretty-printed; the one-pass decoder must take every
// one of them without falling back.
func clientBodies(tb testing.TB) map[string][]byte {
	det := detectorRequest(0.001, 4401) // ten hits: the fuzzer stalls on large seeds
	two := &Request{Events: []Event{syntheticEvent(5), syntheticEvent(0)}, Synthetic: &Synthetic{Count: 2, Seed: 1 << 63}}
	return map[string][]byte{
		"detector compact": mustMarshal(tb, det, false),
		"detector pretty":  mustMarshal(tb, det, true),
		"every field":      mustMarshal(tb, testRequest(), false),
		"two events":       mustMarshal(tb, two, true),
		"synthetic only":   []byte(`{"synthetic":{"count":2,"seed":7}}`),
		"empty object":     []byte(` {} `),
		"empty arrays":     []byte(`{"events":[{"hits":[],"features":[[]],"truth_src":[],"truth_dst":[]}]}`),
		"edge numbers": []byte(`{"events":[{"hits":[{"x":-0,"y":1E+2,"z":0.5e-3,"r":1e-400,"phi":-12.5E-1,"layer":-0,"particle":` +
			strconv.Itoa(math.MinInt) + `}]}]}`),
	}
}

// fallbackBodies each leave the fast path's shape in one way.
var fallbackBodies = map[string]string{
	"null body":            `null`,
	"null events":          `{"events":null}`,
	"null hit":             `{"events":[{"hits":[null]}]}`,
	"array body":           `[]`,
	"nested array body":    `[[]]`,
	"unknown key":          `{"events":[{"hits":[{"x":1,"w":2}]}]}`,
	"upper-case key":       `{"Events":[]}`,
	"upper-case hit key":   `{"events":[{"hits":[{"X":1}]}]}`,
	"escaped key":          `{"\u0065vents":[]}`,
	"duplicate key":        `{"events":[],"events":[]}`,
	"duplicate hit key":    `{"events":[{"hits":[{"x":1,"x":2}]}]}`,
	"duplicate synth key":  `{"synthetic":{"count":1,"count":2}}`,
	"float out of range":   `{"events":[{"hits":[{"x":1e400}]}]}`,
	"int given a fraction": `{"events":[{"hits":[{"layer":1.0}]}]}`,
	"int given exponent":   `{"events":[{"hits":[{"layer":1e2}]}]}`,
	"int out of range":     `{"events":[{"hits":[{"particle":9223372036854775808}]}]}`,
	"int past 2^64":        `{"events":[{"hits":[{"layer":18446744073709551621}]}]}`,
	"negative seed":        `{"synthetic":{"seed":-1}}`,
	"leading zero":         `{"synthetic":{"count":01}}`,
	"bare fraction":        `{"events":[{"features":[[.5]]}]}`,
	"hex float":            `{"events":[{"features":[[0x1p3]]}]}`,
	"string number":        `{"synthetic":{"count":"1"}}`,
	"trailing garbage":     `{"events":[]}x`,
	"trailing comma":       `{"events":[],}`,
	"byte order mark":      "\xef\xbb\xbf{}",
	"truncated":            `{"events":[{"hits":[{"x":1`,
	"empty":                ``,
}

func TestDecodeRequestJSONTakesClientBodies(t *testing.T) {
	for name, body := range clientBodies(t) {
		t.Run(name, func(t *testing.T) {
			want := &Request{}
			if err := json.Unmarshal(body, want); err != nil {
				t.Fatal(err)
			}
			got, ok := decodeRequestFast(body)
			if !ok {
				t.Fatal("the one-pass decoder fell back on a client body")
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("one-pass decode differs from json.Unmarshal:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

func TestDecodeRequestJSONFallsBack(t *testing.T) {
	for name, body := range fallbackBodies {
		t.Run(name, func(t *testing.T) {
			if _, ok := decodeRequestFast([]byte(body)); ok {
				t.Fatal("the one-pass decoder took a body outside its shape")
			}
			want := &Request{}
			werr := json.Unmarshal([]byte(body), want)
			got, err := DecodeRequestJSON([]byte(body))
			if werr != nil {
				if err == nil || err.Error() != werr.Error() {
					t.Fatalf("err = %v, want %v", err, werr)
				}
				return
			}
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("got %+v, %v; want %+v", got, err, want)
			}
		})
	}
}

// TestFloatMatchesParseFloat: the decoder takes exactly the texts of the
// JSON number grammar that strconv.ParseFloat parses without error, and
// gets the bits ParseFloat gives: at the edges of float64 and of a
// 64-bit mantissa, and at random.
func TestFloatMatchesParseFloat(t *testing.T) {
	texts := []string{
		"0", "-0", "0.0", "-0.0e-3", "1", "-1", "1e22", "1e23", "1e-22", "1e-23",
		"9007199254740991", "9007199254740992", "9007199254740993",
		"9007199254740991e22", "9007199254740991e-22", "0.9007199254740991",
		"1234567890123456789", "12345678901234567890", "18446744073709551621", // 2^64 + 5: 5 once wrapped
		"0.1", "0.3", "2.2250738585072014e-308",
		"4.9e-324", "1.7976931348623157e308", "123.456e-2", "1E+2", "0.000000000000000000000000001",
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		f := math.Float64frombits(r.Uint64())
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		texts = append(texts, strconv.FormatFloat(f, 'g', -1, 64), strconv.FormatFloat(f, 'e', r.Intn(17), 64))
		digits := strconv.FormatUint(r.Uint64()>>uint(r.Intn(64)), 10)
		point := r.Intn(len(digits) + 1)
		text := digits[:point] + "." + digits[point:] + "e" + strconv.Itoa(r.Intn(61)-30)
		if point == 0 || point == len(digits) {
			text = digits + "e" + strconv.Itoa(r.Intn(61)-30)
		}
		texts = append(texts, text)
	}
	texts = append(texts, "01", "-01", ".5", "5.", "+1", "1e", "1e+", "-", "0x1p3", "Inf", "1_0", "1.5x")
	grammar := regexp.MustCompile(`^-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?$`)
	for _, text := range texts {
		want, werr := strconv.ParseFloat(text, 64)
		d := &decoder{buf: []byte(text)}
		var got float64
		ok := d.float(&got) && d.off == len(text)
		if ok != (grammar.MatchString(text) && werr == nil) || ok && math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: got %v (%x) ok %v, ParseFloat %v (%x) %v", text, got, math.Float64bits(got), ok, want, math.Float64bits(want), werr)
		}
	}
}

// TestDecodeRequestJSONFeatureRowsCapped: rows share one backing array,
// so each must be capped at its own length.
func TestDecodeRequestJSONFeatureRowsCapped(t *testing.T) {
	req, err := DecodeRequestJSON([]byte(`{"events":[{"features":[[1,2],[],[3]]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	rows := req.Events[0].Features
	_ = append(rows[0], 9)
	if rows[2][0] != 3 {
		t.Fatalf("appending to row 0 overwrote row 2: %v", rows)
	}
	for i, row := range rows {
		if row == nil || cap(row) != len(row) {
			t.Fatalf("row %d: len %d cap %d nil %v", i, len(row), cap(row), row == nil)
		}
	}
}

// TestDecodeRequestJSONAllocs: the one-pass decoder allocates a fixed
// number of times per event, however many hits the event has.
func TestDecodeRequestJSONAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	allocs := func(hits int) float64 {
		body := mustMarshal(t, &Request{Events: []Event{syntheticEvent(hits)}}, false)
		return testing.AllocsPerRun(100, func() {
			if _, ok := decodeRequestFast(body); !ok {
				t.Fatal("fell back")
			}
		})
	}
	small, large := allocs(40), allocs(640)
	// The request, its events, and one exact-size slice for each of hits,
	// the flat features, the rows, truth_src and truth_dst.
	const perEvent = 7
	if small != large || large > perEvent {
		t.Fatalf("allocs per decode: %v at 40 hits, %v at 640 hits; want the same, at most %d", small, large, perEvent)
	}
}

// TestDecodeRequestJSONConcurrent: the decoders' scratch arrays come
// from a shared pool; requests decoded at once must not see each
// other's numbers.
func TestDecodeRequestJSONConcurrent(t *testing.T) {
	const workers = 4
	bodies := make([][]byte, workers)
	wants := make([]*Request, workers)
	for w := range bodies {
		wants[w] = &Request{Events: []Event{syntheticEvent(10 + 30*w)}}
		bodies[w] = mustMarshal(t, wants[w], false)
	}
	var wg sync.WaitGroup
	for w := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 50 {
				got, err := DecodeRequestJSON(bodies[w])
				if err != nil || !reflect.DeepEqual(got, wants[w]) {
					t.Errorf("worker %d: decode differs (err %v)", w, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// FuzzDecodeRequestJSON is a differential oracle against encoding/json:
// where json.Unmarshal succeeds, DecodeRequestJSON returns a deeply
// equal request, and where it fails, the same error text.
func FuzzDecodeRequestJSON(f *testing.F) {
	for _, body := range clientBodies(f) {
		f.Add(body)
	}
	for _, body := range fallbackBodies {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want := &Request{}
		werr := json.Unmarshal(data, want)
		got, err := DecodeRequestJSON(data)
		if werr != nil {
			if err == nil || err.Error() != werr.Error() {
				t.Fatalf("err = %v, json.Unmarshal's = %v", err, werr)
			}
			return
		}
		if err != nil {
			t.Fatalf("err = %v, json.Unmarshal succeeds", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decode differs from json.Unmarshal:\n got %+v\nwant %+v", got, want)
		}
	})
}

// BenchmarkDecodeRequestJSON decodes one Ex3Like(0.05) request, the size
// of the benchmark's serve_small events, through encoding/json and
// through DecodeRequestJSON.
func BenchmarkDecodeRequestJSON(b *testing.B) {
	body := mustMarshal(b, detectorRequest(0.05, 4401), false)
	b.Run("stdlib", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for b.Loop() {
			if err := json.Unmarshal(body, &Request{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fast", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for b.Loop() {
			if _, err := DecodeRequestJSON(body); err != nil {
				b.Fatal(err)
			}
		}
	})
}
