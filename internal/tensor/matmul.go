package tensor

import (
	"fmt"
	"runtime"
	"sync"
)

// This file holds the GEMM kernels: MatMulInto (dst = a·b) and
// MatMulTInto (dst = a·bᵀ), the one kernel every inference in the
// system runs on (nn.Weights.Infer is a one-row InferBatch). Both reuse
// dst and split large products into row panels executed on a bounded
// package-level worker pool. With a correctly-sized dst the steady
// state performs no heap allocations, which is what lets
// nn.Weights.InferBatch stay 0-alloc.
//
// Kernel contract: speed comes from blocking across independent
// outputs, never from reassociating one dot product. Every output
// element is summed by one accumulator in ascending k, exactly as the
// naive triple loop does, so results are bit-identical to it and to
// MulVec — which is what keeps profiled bundles and every reported
// figure fixed when a kernel changes.

const (
	// kBlock is the shared-dimension tile: one a-row tile and the
	// matching b-row panel fit comfortably in L1 at float64.
	kBlock = 256
	// parallelFLOPs is the product size (rows × cols × inner) above
	// which a matmul is split into row panels; below it the
	// dispatch overhead outweighs the span.
	parallelFLOPs = 64 * 1024
	// minPanelRows keeps panels coarse enough that workers do not
	// contend on tiny slices of the output.
	minPanelRows = 8
	// maxMatMulWorkers bounds the pool whatever GOMAXPROCS says.
	maxMatMulWorkers = 16
)

// panelTask is one contiguous row range [r0, r1) of dst to compute.
type panelTask struct {
	dst, a, b *Matrix
	r0, r1    int
	transB    bool
	wg        *sync.WaitGroup
}

var (
	matmulOnce  sync.Once
	matmulTasks chan panelTask
	// wgPool recycles the per-call completion WaitGroup so the parallel
	// dispatch itself does not allocate in steady state.
	wgPool = sync.Pool{New: func() any { return new(sync.WaitGroup) }}
)

// startMatMulPool lazily spins up the row-panel workers. Pool size is
// fixed at first use; the goroutines are cheap and live for the process.
func startMatMulPool() {
	matmulOnce.Do(func() {
		n := runtime.GOMAXPROCS(0)
		if n > maxMatMulWorkers {
			n = maxMatMulWorkers
		}
		if n < 1 {
			n = 1
		}
		matmulTasks = make(chan panelTask, 4*n)
		for i := 0; i < n; i++ {
			go func() {
				for t := range matmulTasks {
					if t.transB {
						mulPanelT(t.dst, t.a, t.b, t.r0, t.r1)
					} else {
						mulPanel(t.dst, t.a, t.b, t.r0, t.r1)
					}
					t.wg.Done()
				}
			}()
		}
	})
}

// dispatchPanels runs the kernel over dst's rows, in parallel when the
// product is large enough to amortize the handoff and more than one P
// can run the panels (with one P the handoff is pure overhead). Panels
// split rows, never a dot product, so the split leaves every output
// element's bits unchanged.
func dispatchPanels(dst, a, b *Matrix, inner int, transB bool) {
	rows := dst.Rows
	if int64(rows)*int64(dst.Cols)*int64(inner) < parallelFLOPs || rows < 2*minPanelRows || runtime.GOMAXPROCS(0) < 2 {
		if transB {
			mulPanelT(dst, a, b, 0, rows)
		} else {
			mulPanel(dst, a, b, 0, rows)
		}
		return
	}
	startMatMulPool()
	panels := rows / minPanelRows
	if max := cap(matmulTasks); panels > max {
		panels = max
	}
	if panels < 2 {
		panels = 2
	}
	per := (rows + panels - 1) / panels
	wg := wgPool.Get().(*sync.WaitGroup)
	for r0 := 0; r0 < rows; r0 += per {
		r1 := r0 + per
		if r1 > rows {
			r1 = rows
		}
		wg.Add(1)
		matmulTasks <- panelTask{dst: dst, a: a, b: b, r0: r0, r1: r1, transB: transB, wg: wg}
	}
	wg.Wait()
	wgPool.Put(wg)
}

// mulPanel computes dst[r0:r1] = a[r0:r1]·b with an ikj loop blocked
// over the shared dimension. Per output element the k-summation order is
// ascending, exactly matching the naive ijk triple loop, so results are
// bit-identical to the reference kernel (NaN and ±Inf included).
func mulPanel(dst, a, b *Matrix, r0, r1 int) {
	n, kdim := dst.Cols, a.Cols
	for i := r0; i < r1; i++ {
		orow := dst.Data[i*n : (i+1)*n]
		for j := range orow {
			orow[j] = 0
		}
		arow := a.Data[i*kdim : (i+1)*kdim]
		for k0 := 0; k0 < kdim; k0 += kBlock {
			k1 := k0 + kBlock
			if k1 > kdim {
				k1 = kdim
			}
			for k := k0; k < k1; k++ {
				av := arow[k]
				brow := b.Data[k*n : (k+1)*n]
				for j, bv := range brow {
					orow[j] += av * bv
				}
			}
		}
	}
}

// mulPanelT computes dst[r0:r1] = a[r0:r1]·bᵀ. Both operands stream
// row-major, so each output element is a dot product of two contiguous
// rows. The kernel is register-blocked across outputs: one pass over k
// serves two a-rows × four b-rows, eight independent accumulators that
// share every a and b load and hide the add latency of one chain behind
// the others. Odd rows and cols%4 tails fall back to narrower blocks.
// Blocking never splits a dot product: each accumulator sums its own
// output in ascending k from zero, exactly as the naive triple loop
// does, so every element is bit-identical to it (NaN/Inf included).
func mulPanelT(dst, a, b *Matrix, r0, r1 int) {
	n, kdim := dst.Cols, a.Cols
	i := r0
	for ; i+2 <= r1; i += 2 {
		a0 := a.Data[i*kdim : (i+1)*kdim]
		a1 := a.Data[(i+1)*kdim : (i+2)*kdim][:len(a0)]
		o0 := dst.Data[i*n : (i+1)*n]
		o1 := dst.Data[(i+1)*n : (i+2)*n][:len(o0)]
		o := 0
		for ; o+4 <= n; o += 4 {
			b0 := b.Data[o*kdim : (o+1)*kdim][:len(a0)]
			b1 := b.Data[(o+1)*kdim : (o+2)*kdim][:len(a0)]
			b2 := b.Data[(o+2)*kdim : (o+3)*kdim][:len(a0)]
			b3 := b.Data[(o+3)*kdim : (o+4)*kdim][:len(a0)]
			var s00, s01, s02, s03, s10, s11, s12, s13 float64
			for k, x0 := range a0 {
				x1 := a1[k]
				y0, y1, y2, y3 := b0[k], b1[k], b2[k], b3[k]
				s00 += x0 * y0
				s01 += x0 * y1
				s02 += x0 * y2
				s03 += x0 * y3
				s10 += x1 * y0
				s11 += x1 * y1
				s12 += x1 * y2
				s13 += x1 * y3
			}
			o0[o], o0[o+1], o0[o+2], o0[o+3] = s00, s01, s02, s03
			o1[o], o1[o+1], o1[o+2], o1[o+3] = s10, s11, s12, s13
		}
		for ; o < n; o++ {
			brow := b.Data[o*kdim : (o+1)*kdim][:len(a0)]
			var s0, s1 float64
			for k, x0 := range a0 {
				y := brow[k]
				s0 += x0 * y
				s1 += a1[k] * y
			}
			o0[o], o1[o] = s0, s1
		}
	}
	if i < r1 {
		mulRowT(dst.Data[i*n:(i+1)*n], a.Data[i*kdim:(i+1)*kdim], b.Data)
	}
}

// mulRowT computes one output row orow = arow·bᵀ, four b-rows per pass
// (the odd-row tail of mulPanelT; also the whole of a one-row product).
func mulRowT(orow, arow, b []float64) {
	kdim, n := len(arow), len(orow)
	o := 0
	for ; o+4 <= n; o += 4 {
		b0 := b[o*kdim : (o+1)*kdim][:len(arow)]
		b1 := b[(o+1)*kdim : (o+2)*kdim][:len(arow)]
		b2 := b[(o+2)*kdim : (o+3)*kdim][:len(arow)]
		b3 := b[(o+3)*kdim : (o+4)*kdim][:len(arow)]
		var s0, s1, s2, s3 float64
		for k, x := range arow {
			s0 += x * b0[k]
			s1 += x * b1[k]
			s2 += x * b2[k]
			s3 += x * b3[k]
		}
		orow[o], orow[o+1], orow[o+2], orow[o+3] = s0, s1, s2, s3
	}
	for ; o < n; o++ {
		brow := b[o*kdim : (o+1)*kdim][:len(arow)]
		var sum float64
		for k, x := range arow {
			sum += x * brow[k]
		}
		orow[o] = sum
	}
}

// MatMulInto computes dst = a·b, reusing dst when it has shape
// a.Rows × b.Cols (allocating a fresh matrix when dst is nil or
// mis-sized) and returning dst. dst must not alias a or b. Large
// products are split into row panels over a bounded worker pool; the
// per-element summation order matches the naive triple loop, so results
// are bit-identical to an unblocked reference (NaN/Inf propagation
// included).
func MatMulInto(dst, a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul %dx%d by %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst == nil || dst.Rows != a.Rows || dst.Cols != b.Cols {
		dst = NewMatrix(a.Rows, b.Cols)
	}
	if dst == a || dst == b {
		panic("tensor: MatMulInto dst aliases an operand")
	}
	dispatchPanels(dst, a, b, a.Cols, false)
	return dst
}

// MatMulTInto computes dst = a·bᵀ for a of shape m×k and b of shape n×k,
// reusing dst when it has shape m×n (allocating when dst is nil or
// mis-sized) and returning dst. dst must not alias a or b. This is the
// batched dense-layer kernel: with X as a row-per-sample batch and W the
// out×in weight matrix, X·Wᵀ is the whole batch's pre-activation in one
// product. Per-element summation is ascending-k with no reassociation,
// so results are bit-identical to an unblocked reference.
func MatMulTInto(dst, a, b *Matrix) *Matrix {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulT %dx%d by (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst == nil || dst.Rows != a.Rows || dst.Cols != b.Rows {
		dst = NewMatrix(a.Rows, b.Rows)
	}
	if dst == a || dst == b {
		panic("tensor: MatMulTInto dst aliases an operand")
	}
	dispatchPanels(dst, a, b, a.Cols, true)
	return dst
}
