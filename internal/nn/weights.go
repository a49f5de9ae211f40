package nn

import (
	"fmt"
	"sync"

	"anole/internal/tensor"
)

// Weights is the frozen, execution-only form of a trained Network: an
// ordered program of dense transforms and activations whose parameters
// never change after construction. A Weights holds no gradients and no
// cached activations, so one instance is safe to share across any number
// of goroutines — every stream, worker, and cache entry can run the same
// resident copy. All mutable per-execution state lives in a Scratch.
//
// Weights is the unit the rest of the system moves around: the model
// cache sizes entries by SizeBytes, the repo serializes it, and
// quantization produces just another Weights (see Quantize).
type Weights struct {
	layers []wlayer

	inDim, outDim int
	maxDim        int // widest activation, sizes Scratch buffers
	flops         int64
	paramCount    int

	// pool recycles Scratch instances for callers that pass nil; it is a
	// pointer so Weights values are never copied with a live pool.
	pool *sync.Pool
	// batchPool does the same for BatchScratch (see batch.go).
	batchPool *sync.Pool
}

// wlayer is one frozen layer: a dense transform (w != nil) or an
// element-wise activation (w == nil, selected by kind).
type wlayer struct {
	kind      layerKind
	w         *tensor.Matrix // out × in, dense only
	b         tensor.Vector
	quantBits int
}

// Inferer is the one interface every executable model form satisfies:
// full-precision and quantized Weights alike run behind it.
type Inferer interface {
	Infer(dst, in tensor.Vector, s *Scratch) tensor.Vector
	InDim() int
	OutDim() int
}

var _ Inferer = (*Weights)(nil)

// Freeze compiles the network's current parameters into an immutable
// Weights program. The parameters are deep-copied, so later training on
// n does not affect the frozen copy.
func (n *Network) Freeze() *Weights {
	ls := make([]wlayer, len(n.layers))
	for i, l := range n.layers {
		switch t := l.(type) {
		case *Dense:
			ls[i] = wlayer{kind: t.kind(), w: t.W.Clone(), b: t.B.Clone(), quantBits: t.quantBits}
		case *activation:
			ls[i] = wlayer{kind: t.tag}
		default:
			panic(fmt.Sprintf("nn: cannot freeze layer type %T", l))
		}
	}
	return newWeights(ls)
}

// Freeze is the free-function form of (*Network).Freeze.
func Freeze(n *Network) *Weights { return n.Freeze() }

// newWeights validates the layer program and precomputes the static
// accounting (dims, FLOPs, parameter count, scratch sizing).
func newWeights(ls []wlayer) *Weights {
	w := &Weights{layers: ls}
	lastOut := 0
	for i := range ls {
		l := &ls[i]
		if l.w == nil {
			w.flops += int64(lastOut)
			continue
		}
		in, out := l.w.Cols, l.w.Rows
		if lastOut != 0 && in != lastOut {
			panic(fmt.Sprintf("nn: frozen layer %d expects input dim %d but previous layer outputs %d", i, in, lastOut))
		}
		if w.inDim == 0 {
			w.inDim = in
		}
		w.flops += 2*int64(in)*int64(out) + int64(out)
		w.paramCount += len(l.w.Data) + len(l.b)
		lastOut = out
	}
	w.outDim = lastOut
	w.maxDim = w.inDim
	for i := range ls {
		if ls[i].w != nil && ls[i].w.Rows > w.maxDim {
			w.maxDim = ls[i].w.Rows
		}
	}
	dim := w.maxDim
	w.pool = &sync.Pool{New: func() any { return newScratch(dim) }}
	w.batchPool = &sync.Pool{New: func() any { return newBatchScratch(dim) }}
	return w
}

// clone returns a Weights sharing every layer except those the caller is
// about to replace; used by the copy-on-write transforms below.
func (w *Weights) clone() *Weights {
	ls := make([]wlayer, len(w.layers))
	copy(ls, w.layers)
	return newWeights(ls)
}

// InDim returns the input dimension of the first dense layer (0 if none).
func (w *Weights) InDim() int { return w.inDim }

// OutDim returns the output dimension of the last dense layer (0 if none).
func (w *Weights) OutDim() int { return w.outDim }

// NumLayers returns the number of layers in the frozen program.
func (w *Weights) NumLayers() int { return len(w.layers) }

// ParamCount returns the total number of scalar parameters.
func (w *Weights) ParamCount() int { return w.paramCount }

// FLOPs estimates the floating-point operations of one forward pass,
// using the same accounting as (*Network).FLOPs.
func (w *Weights) FLOPs() int64 { return w.flops }

// QuantBits returns the bit width the dense layers were quantized to, or
// 0 for full precision (first dense layer's width for mixed precision).
func (w *Weights) QuantBits() int {
	for i := range w.layers {
		if w.layers[i].w != nil {
			return w.layers[i].quantBits
		}
	}
	return 0
}

// WeightBytes returns the parameter payload size in bytes: 8 per scalar
// at full precision, integer storage plus per-tensor scales when
// quantized — the Table II model-size analogue.
func (w *Weights) WeightBytes() int64 {
	bits := w.QuantBits()
	if bits == 0 {
		return int64(w.paramCount) * 8
	}
	bytesPer := int64((bits + 7) / 8)
	var total int64
	for i := range w.layers {
		l := &w.layers[i]
		if l.w == nil {
			continue
		}
		total += int64(len(l.w.Data)+len(l.b))*bytesPer + 16 // two scales
	}
	return total
}

// Scratch is the per-execution working set for running a Weights
// program on one sample: a BatchScratch plus two reusable one-row
// matrix headers over Infer's in and dst, so a single-sample inference
// runs the batch path as a batch of one without allocating. A Scratch
// belongs to one goroutine at a time; acquire from the owning Weights
// (AcquireScratch) or pass nil to Infer and let it borrow one from the
// pool.
type Scratch struct {
	batch         BatchScratch
	inRow, outRow tensor.Matrix
}

func newScratch(maxDim int) *Scratch {
	return &Scratch{batch: BatchScratch{maxDim: maxDim}}
}

// In returns the scratch's input staging buffer sliced to n elements,
// for callers assembling model inputs without allocating per call. The
// buffer is distinct from the intermediate and output buffers, so it
// may be passed to Infer on the same Scratch.
func (s *Scratch) In(n int) tensor.Vector { return s.batch.In(1, n).Data }

// Out returns the scratch's output buffer sliced to n elements,
// suitable as Infer's dst while the same Scratch serves the
// intermediate layers.
func (s *Scratch) Out(n int) tensor.Vector { return s.batch.Out(1, n).Data }

// AcquireScratch borrows a scratch sized for this program from the pool.
// Pair with ReleaseScratch; holding one across many Infer calls keeps
// the steady state allocation-free.
func (w *Weights) AcquireScratch() *Scratch {
	return w.pool.Get().(*Scratch)
}

// ReleaseScratch returns s to the pool. s must not be used afterwards.
func (w *Weights) ReleaseScratch(s *Scratch) {
	if s != nil {
		w.pool.Put(s)
	}
}

// Infer runs the full program on in and writes the output into dst,
// allocating only when dst is nil or mis-sized. dst must not alias in.
// s supplies the intermediate activation buffers; pass nil to borrow one
// from the program's pool. The returned vector is dst: caller-owned, and
// never aliased by later Infer calls. Infer is InferBatch on a batch of
// one row, so the two are bit-identical by construction.
func (w *Weights) Infer(dst, in tensor.Vector, s *Scratch) tensor.Vector {
	return w.inferThrough(len(w.layers), dst, in, s)
}

// InferThrough runs the first k layers only, the frozen counterpart of
// (*Network).ForwardThrough used to extract embeddings.
func (w *Weights) InferThrough(k int, dst, in tensor.Vector, s *Scratch) tensor.Vector {
	if k < 0 || k > len(w.layers) {
		panic(fmt.Sprintf("nn: InferThrough(%d) with %d layers", k, len(w.layers)))
	}
	return w.inferThrough(k, dst, in, s)
}

func (w *Weights) inferThrough(k int, dst, in tensor.Vector, s *Scratch) tensor.Vector {
	if w.inDim > 0 && len(in) != w.inDim {
		panic(fmt.Sprintf("nn: infer input dim %d, want %d", len(in), w.inDim))
	}
	outDim := w.prefixOutDim(k, len(in))
	if len(dst) != outDim {
		dst = tensor.NewVector(outDim)
	}
	release := s == nil
	if release {
		s = w.AcquireScratch()
	}
	s.inRow = tensor.Matrix{Rows: 1, Cols: len(in), Data: in}
	s.outRow = tensor.Matrix{Rows: 1, Cols: outDim, Data: dst}
	w.inferBatchThrough(k, &s.outRow, &s.inRow, &s.batch)
	// Drop the caller's buffers so a pooled scratch does not pin them.
	s.inRow.Data, s.outRow.Data = nil, nil
	if release {
		w.ReleaseScratch(s)
	}
	return dst
}

// prefixOutDim is the output width of the first k layers given an
// input of width in.
func (w *Weights) prefixOutDim(k, in int) int {
	out := in
	for i := 0; i < k; i++ {
		if w.layers[i].w != nil {
			out = w.layers[i].w.Rows
		}
	}
	return out
}

// Quantize returns a new Weights with every dense layer's parameters
// snapped to a symmetric integer grid of the given bit width (2..16).
// The receiver is unmodified; the result is an ordinary Weights — same
// Infer interface, smaller serialized form.
func (w *Weights) Quantize(bits int) (*Weights, error) {
	if bits < 2 || bits > 16 {
		return nil, fmt.Errorf("nn: quantization bits %d outside [2,16]", bits)
	}
	q := w.clone()
	for i := range q.layers {
		l := &q.layers[i]
		if l.w == nil {
			continue
		}
		m, b := l.w.Clone(), l.b.Clone()
		quantizeSlice(m.Data, bits)
		quantizeSlice(b, bits)
		l.w, l.b, l.quantBits, l.kind = m, b, bits, kindDenseQuant
	}
	return q, nil
}

// ScaleFinalDense returns a copy of w whose last dense layer (weights and
// bias) is multiplied by alpha — the copy-on-write form of folding a
// temperature into a classifier head. Quantized programs are refused:
// scaling would move the parameters off their integer grid.
func (w *Weights) ScaleFinalDense(alpha float64) (*Weights, error) {
	idx := -1
	for i := len(w.layers) - 1; i >= 0; i-- {
		if w.layers[i].w != nil {
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil, fmt.Errorf("nn: no dense layer to scale")
	}
	if w.layers[idx].quantBits > 0 {
		return nil, fmt.Errorf("nn: cannot scale a quantized dense layer")
	}
	out := w.clone()
	m, b := out.layers[idx].w.Clone(), out.layers[idx].b.Clone()
	m.Scale(alpha)
	b.Scale(alpha)
	out.layers[idx].w, out.layers[idx].b = m, b
	return out, nil
}

// Thaw reconstructs a trainable Network from the frozen program, with
// fresh gradient buffers and deep-copied parameters. Used to fine-tune a
// deployed model without mutating the shared frozen copy.
func (w *Weights) Thaw() *Network {
	layers := make([]Layer, len(w.layers))
	for i := range w.layers {
		l := &w.layers[i]
		switch l.kind {
		case kindDense, kindDenseQuant:
			layers[i] = &Dense{
				W:         l.w.Clone(),
				B:         l.b.Clone(),
				quantBits: l.quantBits,
				gradW:     tensor.NewMatrix(l.w.Rows, l.w.Cols),
				gradB:     tensor.NewVector(len(l.b)),
			}
		case kindReLU:
			layers[i] = NewReLU()
		case kindTanh:
			layers[i] = NewTanh()
		case kindSigmoid:
			layers[i] = NewSigmoid()
		default:
			panic(fmt.Sprintf("nn: cannot thaw layer kind %d", l.kind))
		}
	}
	return MustNetwork(layers...)
}
