package tensor

import (
	"math"
	"testing"

	"anole/internal/xrand"
)

// naiveMatMul is the unblocked ijk reference the kernels are checked
// against: dst[i][j] = Σ_k a[i][k]·b[k][j], summed in ascending k order
// with no zero-skipping, so NaN and ±Inf propagate exactly as written.
func naiveMatMul(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var sum float64
			for k := 0; k < a.Cols; k++ {
				sum += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, sum)
		}
	}
	return out
}

// naiveMatMulT is the reference for the transposed path: dst = a·bᵀ.
func naiveMatMulT(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			var sum float64
			for k := 0; k < a.Cols; k++ {
				sum += a.At(i, k) * b.At(j, k)
			}
			out.Set(i, j, sum)
		}
	}
	return out
}

func randMatrix(rng *xrand.RNG, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.Norm()
	}
	return m
}

// matricesMatch compares got against want element-wise: finite values
// within relative tolerance tol, NaN matching NaN, infinities matching
// exactly.
func matricesMatch(t *testing.T, got, want *Matrix, tol float64, label string) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", label, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, w := range want.Data {
		g := got.Data[i]
		switch {
		case math.IsNaN(w):
			if !math.IsNaN(g) {
				t.Fatalf("%s: element %d = %v, want NaN", label, i, g)
			}
		case math.IsInf(w, 0):
			if g != w {
				t.Fatalf("%s: element %d = %v, want %v", label, i, g, w)
			}
		default:
			scale := math.Abs(w)
			if scale < 1 {
				scale = 1
			}
			if math.Abs(g-w) > tol*scale {
				t.Fatalf("%s: element %d = %v, want %v (diff %v)", label, i, g, w, g-w)
			}
		}
	}
}

// TestMatMulIntoMatchesNaive sweeps random shapes — including the empty
// and single-row/column edge cases — and checks both kernels against the
// naive triple loop. Both must agree bitwise: the kernels block across
// outputs but keep each dot product's ascending summation order.
func TestMatMulIntoMatchesNaive(t *testing.T) {
	rng := xrand.New(42)
	dims := []int{0, 1, 2, 3, 5, 8, 17, 33, 64}
	for trial := 0; trial < 200; trial++ {
		m := dims[rng.Intn(len(dims))]
		k := dims[rng.Intn(len(dims))]
		n := dims[rng.Intn(len(dims))]
		a := randMatrix(rng, m, k)
		b := randMatrix(rng, k, n)
		want := naiveMatMul(a, b)
		got := MatMulInto(nil, a, b)
		matricesMatch(t, got, want, 0, "MatMulInto")

		bt := randMatrix(rng, n, k)
		wantT := naiveMatMulT(a, bt)
		gotT := MatMulTInto(nil, a, bt)
		matricesMatch(t, gotT, wantT, 0, "MatMulTInto")
	}
}

// TestMatMulParallelPathMatchesNaive forces the row-panel worker pool
// (product far above parallelFLOPs) and checks both kernels still agree
// with the reference.
func TestMatMulParallelPathMatchesNaive(t *testing.T) {
	rng := xrand.New(7)
	a := randMatrix(rng, 300, 70)
	b := randMatrix(rng, 70, 90)
	matricesMatch(t, MatMulInto(nil, a, b), naiveMatMul(a, b), 0, "parallel MatMulInto")

	bt := randMatrix(rng, 90, 70)
	matricesMatch(t, MatMulTInto(nil, a, bt), naiveMatMulT(a, bt), 0, "parallel MatMulTInto")
}

// TestMatMulNaNInfPropagation pins IEEE semantics: a zero row times a
// NaN column still yields NaN (the old MatMul's zero-skip silently
// dropped it), and mixed ±Inf columns collapse to NaN exactly as the
// naive sum does.
func TestMatMulNaNInfPropagation(t *testing.T) {
	a := FromRows([][]float64{{0, 0}, {1, 2}})
	b := FromRows([][]float64{{math.NaN(), 1}, {math.Inf(1), math.Inf(-1)}})
	want := naiveMatMul(a, b)
	matricesMatch(t, MatMulInto(nil, a, b), want, 0, "NaN/Inf MatMulInto")
	if !math.IsNaN(want.At(0, 0)) {
		t.Fatal("reference lost NaN from a zero row — test fixture broken")
	}

	bt := FromRows([][]float64{{math.NaN(), math.Inf(1)}, {1, math.Inf(-1)}})
	wantT := naiveMatMulT(a, bt)
	matricesMatch(t, MatMulTInto(nil, a, bt), wantT, 0, "NaN/Inf MatMulTInto")
}

// TestMatMulIntoReusesDst pins the whole point of the Into form: a
// correctly-shaped dst is written in place and returned unchanged in
// identity, with stale contents fully overwritten.
func TestMatMulIntoReusesDst(t *testing.T) {
	rng := xrand.New(3)
	a := randMatrix(rng, 4, 6)
	b := randMatrix(rng, 6, 5)
	dst := NewMatrix(4, 5)
	dst.Fill(123)
	if out := MatMulInto(dst, a, b); out != dst {
		t.Fatal("MatMulInto reallocated a correctly-sized dst")
	}
	matricesMatch(t, dst, naiveMatMul(a, b), 0, "reused dst")

	bt := randMatrix(rng, 5, 6)
	dstT := NewMatrix(4, 5)
	dstT.Fill(-9)
	if out := MatMulTInto(dstT, a, bt); out != dstT {
		t.Fatal("MatMulTInto reallocated a correctly-sized dst")
	}
	matricesMatch(t, dstT, naiveMatMulT(a, bt), 0, "reused dstT")

	// Mis-sized dst is replaced, not written out of bounds.
	small := NewMatrix(1, 1)
	if out := MatMulInto(small, a, b); out == small {
		t.Fatal("mis-sized dst was reused")
	}
}

// TestMatMulWrapperMatchesInto keeps the legacy MatMul a faithful thin
// wrapper.
func TestMatMulWrapperMatchesInto(t *testing.T) {
	rng := xrand.New(11)
	a := randMatrix(rng, 7, 9)
	b := randMatrix(rng, 9, 4)
	matricesMatch(t, MatMul(a, b), MatMulInto(nil, a, b), 0, "MatMul wrapper")
}

// TestMatMulZeroAllocsWithHeldDst pins the steady-state allocation
// contract for both the serial and the parallel (row-panel pool) paths.
func TestMatMulZeroAllocsWithHeldDst(t *testing.T) {
	rng := xrand.New(5)
	// Small product: stays on the serial path.
	a, b := randMatrix(rng, 8, 8), randMatrix(rng, 8, 8)
	dst := NewMatrix(8, 8)
	if allocs := testing.AllocsPerRun(100, func() { MatMulInto(dst, a, b) }); allocs != 0 {
		t.Fatalf("serial MatMulInto with held dst: %v allocs/op, want 0", allocs)
	}

	// Large product: exercises the worker pool; warm it first so the
	// lazily-started goroutines and pooled WaitGroup are in place.
	la, lb := randMatrix(rng, 128, 64), randMatrix(rng, 64, 64)
	ldst := NewMatrix(128, 64)
	MatMulInto(ldst, la, lb)
	if allocs := testing.AllocsPerRun(50, func() { MatMulInto(ldst, la, lb) }); allocs > 0 {
		t.Fatalf("parallel MatMulInto with held dst: %v allocs/op, want 0", allocs)
	}

	lbt := randMatrix(rng, 64, 64)
	tdst := NewMatrix(128, 64)
	MatMulTInto(tdst, la, lbt)
	if allocs := testing.AllocsPerRun(50, func() { MatMulTInto(tdst, la, lbt) }); allocs > 0 {
		t.Fatalf("parallel MatMulTInto with held dst: %v allocs/op, want 0", allocs)
	}
}

// TestMatMulIntoPanics pins the programmer-error surface: inner-dimension
// mismatch and aliased destinations.
func TestMatMulIntoPanics(t *testing.T) {
	a := NewMatrix(2, 3)
	b := NewMatrix(4, 2)
	mustPanic(t, "inner mismatch", func() { MatMulInto(nil, a, b) })
	mustPanic(t, "transposed mismatch", func() { MatMulTInto(nil, a, b) })
	sq := NewMatrix(3, 3)
	mustPanic(t, "dst aliases a", func() { MatMulInto(sq, sq, NewMatrix(3, 3)) })
	mustPanic(t, "dstT aliases b", func() { MatMulTInto(sq, NewMatrix(3, 3), sq) })
}

func mustPanic(t *testing.T, label string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: no panic", label)
		}
	}()
	f()
}

// FuzzMatMulKernels drives both kernels against the naive reference with
// fuzzer-chosen shapes, seeds and special-value injection (NaN, ±Inf,
// zeros). Both paths must be bitwise identical to it.
func FuzzMatMulKernels(f *testing.F) {
	f.Add(uint64(1), 3, 4, 5, uint8(0))
	f.Add(uint64(2), 0, 3, 2, uint8(1))
	f.Add(uint64(3), 1, 1, 1, uint8(2))
	f.Add(uint64(4), 33, 17, 9, uint8(3))
	f.Fuzz(func(t *testing.T, seed uint64, m, k, n int, special uint8) {
		const maxDim = 48
		clamp := func(d int) int {
			if d < 0 {
				d = -d
			}
			return d % (maxDim + 1)
		}
		m, k, n = clamp(m), clamp(k), clamp(n)
		rng := xrand.New(seed)
		a := randMatrix(rng, m, k)
		b := randMatrix(rng, k, n)
		bt := randMatrix(rng, n, k)
		inject := func(mat *Matrix) {
			if len(mat.Data) == 0 {
				return
			}
			idx := rng.Intn(len(mat.Data))
			switch special % 4 {
			case 1:
				mat.Data[idx] = math.NaN()
			case 2:
				mat.Data[idx] = math.Inf(1)
			case 3:
				mat.Data[idx] = math.Inf(-1)
			}
			mat.Data[rng.Intn(len(mat.Data))] = 0
		}
		inject(a)
		inject(b)
		inject(bt)

		want := naiveMatMul(a, b)
		got := MatMulInto(nil, a, b)
		for i := range want.Data {
			w, g := want.Data[i], got.Data[i]
			if w != g && !(math.IsNaN(w) && math.IsNaN(g)) {
				t.Fatalf("MatMulInto element %d = %v, want %v (bitwise contract)", i, g, w)
			}
		}

		wantT := naiveMatMulT(a, bt)
		gotT := MatMulTInto(nil, a, bt)
		for i := range wantT.Data {
			w, g := wantT.Data[i], gotT.Data[i]
			if w != g && !(math.IsNaN(w) && math.IsNaN(g)) {
				t.Fatalf("MatMulTInto element %d = %v, want %v (bitwise contract)", i, g, w)
			}
		}
	})
}

// sameBits reports whether got and want agree bit for bit, any NaN
// matching any NaN (payloads are not part of the contract).
func sameBits(got, want float64) bool {
	if math.IsNaN(want) {
		return math.IsNaN(got)
	}
	return math.Float64bits(got) == math.Float64bits(want)
}

// tileMatrix is randMatrix with, when special is set, one NaN, one +Inf
// and one -Inf planted at random positions.
func tileMatrix(rng *xrand.RNG, rows, cols int, special bool) *Matrix {
	m := randMatrix(rng, rows, cols)
	if special && len(m.Data) > 0 {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			m.Data[rng.Intn(len(m.Data))] = v
		}
	}
	return m
}

// TestMatMulTTileTails sweeps the register tile's edges: the 2×4 block,
// the odd-row tail, every cols%4 remainder and short, single and
// unaligned shared dimensions, with and without NaN/±Inf, through the
// serial panel path and — for the tall products, when more than one P
// is available (go test -cpu 2,4) — the parallel one. Every element
// must equal the naive reference bit for bit.
func TestMatMulTTileTails(t *testing.T) {
	rng := xrand.New(91)
	for _, rows := range []int{1, 2, 3, 5, 301} {
		for _, cols := range []int{1, 2, 3, 4, 5, 6, 7, 8, 65, 66, 67} {
			for _, k := range []int{0, 1, 17} {
				for _, special := range []bool{false, true} {
					a := tileMatrix(rng, rows, k, special)
					b := tileMatrix(rng, cols, k, special)
					want := naiveMatMulT(a, b)
					got := MatMulTInto(nil, a, b)
					for i := range want.Data {
						if !sameBits(got.Data[i], want.Data[i]) {
							t.Fatalf("%dx%d·(%dx%d)ᵀ special=%v: element %d = %v, want %v",
								rows, k, cols, k, special, i, got.Data[i], want.Data[i])
						}
					}
				}
			}
		}
	}
}

// TestMulVecBlockTails checks MulVec's four-row block and its tail
// (rows%4 ≠ 0), with and without NaN/±Inf, against one plain dot
// product per row, bit for bit.
func TestMulVecBlockTails(t *testing.T) {
	rng := xrand.New(92)
	for _, rows := range []int{1, 2, 3, 4, 5, 6, 7, 9, 13} {
		for _, cols := range []int{0, 1, 17} {
			for _, special := range []bool{false, true} {
				m := tileMatrix(rng, rows, cols, special)
				v := Vector(tileMatrix(rng, 1, cols, special).Data)
				got := m.MulVec(nil, v)
				for i := 0; i < rows; i++ {
					var want float64
					for j := 0; j < cols; j++ {
						want += m.At(i, j) * v[j]
					}
					if !sameBits(got[i], want) {
						t.Fatalf("%dx%d special=%v: row %d = %v, want %v", rows, cols, special, i, got[i], want)
					}
				}
			}
		}
	}
}
