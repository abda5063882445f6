package sparse

import (
	"testing"
)

// decodeEdges interprets fuzz bytes as a small graph: first byte sizes
// the vertex set, the rest pair up into (src, dst) edges reduced mod n.
// Every decoded graph is structurally valid input — the fuzzing surface
// is the CSR construction and the reference SpGEMM, which must uphold
// their invariants for ANY edge list, not crash on one.
func decodeEdges(data []byte) (n int, src, dst []int) {
	if len(data) == 0 {
		return 1, nil, nil
	}
	n = int(data[0]%32) + 1
	rest := data[1:]
	for i := 0; i+1 < len(rest) && len(src) < 256; i += 2 {
		src = append(src, int(rest[i])%n)
		dst = append(dst, int(rest[i+1])%n)
	}
	return n, src, dst
}

// checkCSRInvariants fails the test where checkValid panics: a broken
// row pointer envelope, non-monotone row pointers, or a row whose columns
// are out of range or not strictly sorted.
func checkCSRInvariants(t *testing.T, m *CSR) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Helper()
			t.Fatalf("invalid %dx%d CSR: %v", m.RowsN, m.ColsN, r)
		}
	}()
	m.checkValid()
}

// FuzzCSRFromEdges: CSR construction (per-row sort and dedup) upholds its
// invariants and agrees with a brute-force dense adjacency for any edge
// list, symmetric or not.
func FuzzCSRFromEdges(f *testing.F) {
	f.Add([]byte{4, 0, 1, 1, 2, 2, 3, 3, 0})
	f.Add([]byte{1, 0, 0})
	f.Add([]byte{8, 7, 7, 7, 7, 0, 7})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		n, src, dst := decodeEdges(data)
		for _, symmetric := range []bool{false, true} {
			m := FromEdges(n, src, dst, symmetric)
			checkCSRInvariants(t, m)
			want := make([]float64, n*n)
			for k := range src {
				want[src[k]*n+dst[k]] = 1
				if symmetric {
					want[dst[k]*n+src[k]] = 1
				}
			}
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if got := m.At(i, j); got != want[i*n+j] {
						t.Fatalf("symmetric=%v: At(%d,%d)=%v want %v", symmetric, i, j, got, want[i*n+j])
					}
				}
			}
		}
	})
}

// FuzzSpGEMM: the reference SpGEMM produces a valid CSR
// that matches the dense reference product A·B for arbitrary sparse
// operands (B = Aᵀ so shapes always agree and transposition is stressed
// too).
func FuzzSpGEMM(f *testing.F) {
	f.Add([]byte{4, 0, 1, 1, 2, 2, 3})
	f.Add([]byte{2, 0, 0, 1, 1})
	f.Add([]byte{16, 3, 9, 9, 3, 1, 15, 0, 0})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		n, src, dst := decodeEdges(data)
		a := FromEdges(n, src, dst, false)
		// Give values some variety beyond 1 so numeric bugs can't hide.
		for i := range a.Vals {
			a.Vals[i] = float64(i%5) + 0.5
		}
		b := a.Transpose()
		checkCSRInvariants(t, b)
		c := SpGEMM(a, b)
		checkCSRInvariants(t, c)
		if c.Rows() != n || c.Cols() != n {
			t.Fatalf("product shape %dx%d, want %dx%d", c.Rows(), c.Cols(), n, n)
		}
		// Dense reference.
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := 0.0
				for k := 0; k < n; k++ {
					want += a.At(i, k) * b.At(k, j)
				}
				got := c.At(i, j)
				diff := got - want
				if diff < -1e-9 || diff > 1e-9 {
					t.Fatalf("C(%d,%d)=%v, dense reference %v", i, j, got, want)
				}
			}
		}
		// No stored entry outside the structural product: every stored
		// entry needs a matching k.
		for i := 0; i < n; i++ {
			cols, _ := c.Row(i)
			for _, j := range cols {
				structural := false
				for k := 0; k < n && !structural; k++ {
					structural = a.At(i, k) != 0 && b.At(k, j) != 0
				}
				if !structural {
					t.Fatalf("C(%d,%d) stored without structural support", i, j)
				}
			}
		}
	})
}
