package nn

import (
	"fmt"
	"math"

	"anole/internal/tensor"
)

// BatchScratch is the per-execution working set for running a Weights
// program over a whole batch at once: ping-pong activation matrices plus
// caller-usable input/output staging, all row-major with one sample per
// row. Buffers grow on demand to the largest batch seen and are then
// reused, so the steady state (same batch shape) performs no heap
// allocations. A BatchScratch belongs to one goroutine at a time;
// acquire from the owning Weights (AcquireBatchScratch) or pass nil to
// InferBatch and let it borrow one from the pool.
type BatchScratch struct {
	maxDim int

	pingBuf, pongBuf, inBuf, outBuf []float64
	// Reused matrix headers re-sliced over the buffers per call, so
	// callers and the layer loop never allocate tensor.Matrix values.
	ping, pong, inM, outM tensor.Matrix
}

func newBatchScratch(maxDim int) *BatchScratch {
	return &BatchScratch{maxDim: maxDim}
}

// ensure grows the ping-pong buffers to hold rows samples of the
// widest layer.
func (s *BatchScratch) ensure(rows int) {
	s.pingBuf = grow(s.pingBuf, rows*s.maxDim)
	s.pongBuf = grow(s.pongBuf, rows*s.maxDim)
}

// grow returns buf when it can hold n elements, else a fresh buffer.
func grow(buf []float64, n int) []float64 {
	if n <= cap(buf) {
		return buf
	}
	return make([]float64, n)
}

// view re-points one of the scratch's matrix headers at buf with the
// given shape.
func view(m *tensor.Matrix, buf []float64, rows, cols int) *tensor.Matrix {
	m.Rows, m.Cols, m.Data = rows, cols, buf[:rows*cols]
	return m
}

// In returns the scratch's input staging matrix shaped rows × cols, for
// callers assembling batch inputs (one sample per row) without
// allocating per call. cols must not exceed the owning program's widest
// layer. The matrix is distinct from the ping-pong and output buffers,
// so it may be passed to InferBatch on the same BatchScratch. Its
// buffer grows to the largest rows × cols asked for, not to the widest
// layer.
func (s *BatchScratch) In(rows, cols int) *tensor.Matrix {
	if cols > s.maxDim {
		panic(fmt.Sprintf("nn: batch staging width %d exceeds program max %d", cols, s.maxDim))
	}
	s.inBuf = grow(s.inBuf, rows*cols)
	return view(&s.inM, s.inBuf, rows, cols)
}

// Out returns the scratch's output matrix shaped rows × cols, suitable
// as InferBatch's dst while the same scratch serves the intermediate
// layers. Like In, its buffer grows only to the shapes asked for.
func (s *BatchScratch) Out(rows, cols int) *tensor.Matrix {
	if cols > s.maxDim {
		panic(fmt.Sprintf("nn: batch output width %d exceeds program max %d", cols, s.maxDim))
	}
	s.outBuf = grow(s.outBuf, rows*cols)
	return view(&s.outM, s.outBuf, rows, cols)
}

// AcquireBatchScratch borrows a batch scratch sized for this program
// from the pool. Pair with ReleaseBatchScratch; holding one across many
// InferBatch calls keeps the steady-state batch path allocation-free.
func (w *Weights) AcquireBatchScratch() *BatchScratch {
	return w.batchPool.Get().(*BatchScratch)
}

// ReleaseBatchScratch returns s to the pool. s must not be used
// afterwards.
func (w *Weights) ReleaseBatchScratch(s *BatchScratch) {
	if s != nil {
		w.batchPool.Put(s)
	}
}

// InferBatch runs the full program on a batch of inputs (one sample per
// row of in) and writes the outputs into dst (one result per row),
// allocating only when dst is nil or mis-shaped. dst must not alias in.
// s supplies the intermediate activation matrices; pass nil to borrow
// one from the program's pool. Dense layers execute as one
// matrix-matrix product per layer (tensor.MatMulTInto against the
// frozen out×in weight matrix), so a batch of B samples costs one GEMM
// instead of B GEMVs. This is the program's only execution path: Infer
// is a one-row InferBatch, and the kernel sums each dot product in
// ascending order exactly as MulVec does, so results match the
// trainable Network bit for bit.
func (w *Weights) InferBatch(dst, in *tensor.Matrix, s *BatchScratch) *tensor.Matrix {
	return w.inferBatchThrough(len(w.layers), dst, in, s)
}

// InferBatchThrough runs the first k layers only over the batch, the
// batched counterpart of InferThrough (embedding extraction).
func (w *Weights) InferBatchThrough(k int, dst, in *tensor.Matrix, s *BatchScratch) *tensor.Matrix {
	if k < 0 || k > len(w.layers) {
		panic(fmt.Sprintf("nn: InferBatchThrough(%d) with %d layers", k, len(w.layers)))
	}
	return w.inferBatchThrough(k, dst, in, s)
}

func (w *Weights) inferBatchThrough(k int, dst, in *tensor.Matrix, s *BatchScratch) *tensor.Matrix {
	if w.inDim > 0 && in.Cols != w.inDim {
		panic(fmt.Sprintf("nn: batch infer input dim %d, want %d", in.Cols, w.inDim))
	}
	rows := in.Rows
	outDim := w.prefixOutDim(k, in.Cols)
	if dst == nil || dst.Rows != rows || dst.Cols != outDim {
		dst = tensor.NewMatrix(rows, outDim)
	}
	if k == 0 || rows == 0 {
		copy(dst.Data, in.Data[:rows*outDim])
		return dst
	}
	release := false
	if s == nil {
		s = w.AcquireBatchScratch()
		release = true
	}
	s.ensure(rows)
	x := in
	buf, alt := s.pingBuf, s.pongBuf
	front, back := &s.ping, &s.pong
	for i := 0; i < k; i++ {
		l := &w.layers[i]
		// A dense layer followed by an activation runs as one step: the
		// bias and the activation are applied in the same pass over the
		// product.
		var act layerKind
		if l.w != nil && i+1 < k && w.layers[i+1].w == nil {
			i++
			act = w.layers[i].kind
		}
		cols := x.Cols
		if l.w != nil {
			cols = l.w.Rows
		}
		target := dst
		if i < k-1 {
			target = view(front, buf, rows, cols)
		}
		if l.w != nil {
			tensor.MatMulTInto(target, x, l.w)
			addBiasActivate(target.Data, l.b, act)
		} else {
			activate(target.Data, x.Data, l.kind)
		}
		x = target
		buf, alt = alt, buf
		front, back = back, front
	}
	if release {
		w.ReleaseBatchScratch(s)
	}
	return dst
}

// addBiasActivate adds the bias b to every row of the row-major data
// and then applies the activation act (0 for none), in place. The
// arithmetic is exactly a separate bias pass followed by a separate
// activation layer: each element is rounded once after the add and then
// mapped by the same function.
func addBiasActivate(data []float64, b tensor.Vector, act layerKind) {
	n := len(b)
	if n == 0 {
		return
	}
	for r := 0; r+n <= len(data); r += n {
		row := data[r : r+n]
		switch act {
		case 0:
			for j, bj := range b {
				row[j] += bj
			}
		case kindReLU:
			for j, bj := range b {
				row[j] = reluFn(row[j] + bj)
			}
		case kindTanh:
			for j, bj := range b {
				row[j] = math.Tanh(row[j] + bj)
			}
		case kindSigmoid:
			for j, bj := range b {
				row[j] = sigmoidFn(row[j] + bj)
			}
		default:
			panic(fmt.Sprintf("nn: unknown activation kind %d", act))
		}
	}
}

// activate writes the element-wise activation kind of src into dst.
func activate(dst, src []float64, kind layerKind) {
	dst = dst[:len(src)]
	switch kind {
	case kindReLU:
		for j, v := range src {
			dst[j] = reluFn(v)
		}
	case kindTanh:
		for j, v := range src {
			dst[j] = math.Tanh(v)
		}
	case kindSigmoid:
		for j, v := range src {
			dst[j] = sigmoidFn(v)
		}
	default:
		panic(fmt.Sprintf("nn: unknown activation kind %d", kind))
	}
}
