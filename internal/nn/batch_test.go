package nn_test

import (
	"fmt"
	"math"
	"testing"

	"anole/internal/nn"
	"anole/internal/tensor"
	"anole/internal/xrand"
)

// fixtureActs are the activations batchFixture draws from, each with
// the scalar function the naive reference applies for it.
var fixtureActs = []struct {
	name  string
	layer func() nn.Layer
	fn    func(float64) float64
}{
	{"relu", nn.NewReLU, func(x float64) float64 {
		if x > 0 {
			return x
		}
		return 0
	}},
	{"tanh", nn.NewTanh, math.Tanh},
	{"sigmoid", nn.NewSigmoid, func(x float64) float64 { return 1 / (1 + math.Exp(-x)) }},
}

// batchFixture freezes a randomized MLP with fuzz-ish shape diversity:
// hidden widths, depth and activation vary per seed so the batch path
// is exercised across narrow, wide, deep and shallow programs. It
// returns the activation's scalar function for naiveInfer.
func batchFixture(t testing.TB, seed uint64) (*nn.Weights, func(float64) float64, *xrand.RNG) {
	t.Helper()
	rng := xrand.New(seed)
	depth := 1 + rng.Intn(3)
	hidden := make([]int, depth)
	for i := range hidden {
		hidden[i] = 1 + rng.Intn(40)
	}
	in := 1 + rng.Intn(30)
	out := 1 + rng.Intn(12)
	act := fixtureActs[seed%uint64(len(fixtureActs))]
	net := nn.NewMLP(nn.MLPConfig{InDim: in, Hidden: hidden, OutDim: out, Activation: act.layer}, rng)
	return net.Freeze(), act.fn, rng
}

// naiveInfer is the independent reference for an MLP program: it runs
// the first k layers (dense, activation, dense, ..., dense) on x with
// every dense output one dot product summed in ascending k from zero,
// then the bias, and act applied element-wise. It shares no code with
// the nn execution path.
func naiveInfer(w *nn.Weights, act func(float64) float64, k int, x []float64) []float64 {
	params := w.Thaw().Params()
	for l := 0; l < k; l++ {
		if l%2 == 1 {
			out := make([]float64, len(x))
			for j, v := range x {
				out[j] = act(v)
			}
			x = out
			continue
		}
		wm, b := params[l], params[l+1] // layer l is the (l/2)-th dense
		out := make([]float64, len(b.Value))
		for o := range out {
			var sum float64
			for i := range x {
				sum += x[i] * wm.Value[o*len(x)+i]
			}
			out[o] = sum + b.Value[o]
		}
		x = out
	}
	return x
}

// sameBits reports whether a and b are identical float64 vectors bit
// for bit (so NaN matches NaN and -0 does not match +0).
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestInferBatchMatchesSequential is the batch-equivalence property
// test at the nn layer: for randomized program shapes, activations and
// batch sizes (including 0 and 1), every row of InferBatch and every
// single-sample Infer must equal the naive reference bit for bit — the
// kernel blocks across outputs but never reassociates a dot product.
func TestInferBatchMatchesSequential(t *testing.T) {
	for seed := uint64(0); seed < 30; seed++ {
		w, act, rng := batchFixture(t, seed)
		for _, batch := range []int{0, 1, 2, 3, 7, 32, 65} {
			in := tensor.NewMatrix(batch, w.InDim())
			for i := range in.Data {
				in.Data[i] = rng.NormMS(0, 1)
			}
			got := w.InferBatch(nil, in, nil)
			if got.Rows != batch || got.Cols != w.OutDim() {
				t.Fatalf("seed %d batch %d: output %dx%d, want %dx%d",
					seed, batch, got.Rows, got.Cols, batch, w.OutDim())
			}
			for r := 0; r < batch; r++ {
				want := naiveInfer(w, act, w.NumLayers(), in.Row(r))
				if !sameBits(got.Row(r), want) {
					t.Fatalf("seed %d batch %d row %d: batched %v, reference %v", seed, batch, r, got.Row(r), want)
				}
				if single := w.Infer(nil, in.Row(r), nil); !sameBits(single, want) {
					t.Fatalf("seed %d batch %d row %d: Infer %v, reference %v", seed, batch, r, single, want)
				}
			}
		}
	}
}

// TestInferBatchThroughMatchesSequential covers the layer-prefix form
// used for batched embedding extraction: every prefix length, batched
// and per-row InferThrough against the naive reference.
func TestInferBatchThroughMatchesSequential(t *testing.T) {
	w, act, rng := batchFixture(t, 99)
	const batch = 9
	in := tensor.NewMatrix(batch, w.InDim())
	for i := range in.Data {
		in.Data[i] = rng.NormMS(0, 1)
	}
	for k := 0; k <= w.NumLayers(); k++ {
		got := w.InferBatchThrough(k, nil, in, nil)
		for r := 0; r < batch; r++ {
			want := naiveInfer(w, act, k, in.Row(r))
			if !sameBits(got.Row(r), want) {
				t.Fatalf("k=%d row %d: batched %v, reference %v", k, r, got.Row(r), want)
			}
			if single := w.InferThrough(k, nil, in.Row(r), nil); !sameBits(single, want) {
				t.Fatalf("k=%d row %d: InferThrough %v, reference %v", k, r, single, want)
			}
		}
	}
}

// TestActivationEdgeCasesMatchForward pins the inlined activations to
// the trainable layers' functions on the IEEE edge cases: ReLU maps NaN
// and -0 to +0, tanh and sigmoid saturate at ±Inf and propagate NaN.
// Each program is checked both with the activation standing alone (its
// input is the raw sample, so -0 reaches it) and fused after a dense
// layer.
func TestActivationEdgeCasesMatchForward(t *testing.T) {
	edge := []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), -2.5, 3.5, 1e-310, -1e-310}
	unit := func() *nn.Dense {
		d := nn.NewDense(1, 1, xrand.New(1))
		d.W.Data[0] = 1
		return d
	}
	for _, act := range fixtureActs {
		for _, net := range []*nn.Network{
			nn.MustNetwork(act.layer(), unit()),
			nn.MustNetwork(unit(), act.layer(), unit()),
		} {
			w := net.Freeze()
			for _, v := range edge {
				x := tensor.Vector{v}
				for k := 0; k <= w.NumLayers(); k++ {
					want := net.ForwardThrough(k, x).Clone()
					if got := w.InferThrough(k, nil, x, nil); !sameBits(got, want) {
						t.Fatalf("%s input %v k=%d: Infer %v, Forward %v", act.name, v, k, got, want)
					}
				}
			}
		}
	}
}

// TestInferBatchZeroAllocs pins the steady-state allocation contract of
// the batch path: a held BatchScratch plus scratch-owned staging/output
// matrices make InferBatch allocation-free, including the row-panel
// parallel matmul underneath. CI's allocations job re-measures this pin
// on every push.
func TestInferBatchZeroAllocs(t *testing.T) {
	_, w, rng := freezeFixture(t, 6)
	const batch = 64
	s := w.AcquireBatchScratch()
	defer w.ReleaseBatchScratch(s)
	in := s.In(batch, w.InDim())
	for i := range in.Data {
		in.Data[i] = rng.NormMS(0, 1)
	}
	dst := s.Out(batch, w.OutDim())
	// Warm: grows scratch buffers to this batch shape and spins up the
	// tensor worker pool, after which the steady state must not allocate.
	w.InferBatch(dst, in, s)
	allocs := testing.AllocsPerRun(200, func() {
		w.InferBatch(dst, in, s)
	})
	if allocs != 0 {
		t.Fatalf("InferBatch with held scratch: %v allocs/op, want 0", allocs)
	}
}

// TestBatchScratchPoolReuse checks the nil-scratch convenience path
// borrows pooled batch scratches rather than growing without bound.
func TestBatchScratchPoolReuse(t *testing.T) {
	_, w, rng := freezeFixture(t, 8)
	const batch = 16
	in := tensor.NewMatrix(batch, w.InDim())
	for i := range in.Data {
		in.Data[i] = rng.NormMS(0, 1)
	}
	dst := tensor.NewMatrix(batch, w.OutDim())
	for i := 0; i < 8; i++ {
		w.InferBatch(dst, in, nil)
	}
	allocs := testing.AllocsPerRun(200, func() {
		w.InferBatch(dst, in, nil)
	})
	if allocs > 1 {
		t.Fatalf("pooled InferBatch: %v allocs/op, want ≤1", allocs)
	}
}

// TestBatchScratchStagingIsolation pins that the In and Out staging
// matrices survive an InferBatch on the same scratch — the runtime
// assembles inputs in In, runs the program, and reads Out without any
// intermediate layer clobbering either.
func TestBatchScratchStagingIsolation(t *testing.T) {
	_, w, rng := freezeFixture(t, 12)
	const batch = 5
	s := w.AcquireBatchScratch()
	defer w.ReleaseBatchScratch(s)
	in := s.In(batch, w.InDim())
	for i := range in.Data {
		in.Data[i] = rng.NormMS(0, 1)
	}
	snapshot := append([]float64(nil), in.Data...)
	dst := s.Out(batch, w.OutDim())
	w.InferBatch(dst, in, s)
	for i := range snapshot {
		if in.Data[i] != snapshot[i] {
			t.Fatal("InferBatch clobbered the input staging matrix")
		}
	}
	// The outputs must equal the per-row sequential results, proving dst
	// was not used as an intermediate buffer.
	for r := 0; r < batch; r++ {
		want := w.Infer(nil, in.Row(r), nil)
		for j := range want {
			if math.Abs(dst.At(r, j)-want[j]) > 1e-12 {
				t.Fatalf("row %d out %d: %v, want %v", r, j, dst.At(r, j), want[j])
			}
		}
	}
}

// TestInferBatchQuantized runs the batch path over a quantized program:
// a quantized Weights is just another program, so it must match the
// naive reference over its snapped parameters too.
func TestInferBatchQuantized(t *testing.T) {
	_, w, rng := freezeFixture(t, 21)
	q, err := w.Quantize(8)
	if err != nil {
		t.Fatal(err)
	}
	const batch = 11
	in := tensor.NewMatrix(batch, q.InDim())
	for i := range in.Data {
		in.Data[i] = rng.NormMS(0, 1)
	}
	got := q.InferBatch(nil, in, nil)
	for r := 0; r < batch; r++ {
		want := naiveInfer(q, fixtureActs[0].fn, q.NumLayers(), in.Row(r))
		if !sameBits(got.Row(r), want) {
			t.Fatalf("row %d: batched %v, reference %v", r, got.Row(r), want)
		}
	}
}

// BenchmarkBatchStep is the CI allocations-job smoke for the batch
// path: one batched forward pass per op with a held scratch, -benchmem
// showing the steady state at 0 B/op. The sequential baseline is the
// same work as B independent Infer calls, for the speedup headline.
func BenchmarkBatchStep(b *testing.B) {
	_, w, rng := freezeFixture(b, 30)
	for _, batch := range []int{16, 64, 256} {
		in := tensor.NewMatrix(batch, w.InDim())
		for i := range in.Data {
			in.Data[i] = rng.NormMS(0, 1)
		}
		b.Run(fmt.Sprintf("batched/batch=%d", batch), func(b *testing.B) {
			s := w.AcquireBatchScratch()
			defer w.ReleaseBatchScratch(s)
			dst := s.Out(batch, w.OutDim())
			staged := s.In(batch, w.InDim())
			copy(staged.Data, in.Data)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.InferBatch(dst, staged, s)
			}
		})
		b.Run(fmt.Sprintf("sequential/batch=%d", batch), func(b *testing.B) {
			s := w.AcquireScratch()
			defer w.ReleaseScratch(s)
			dst := s.Out(w.OutDim())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for r := 0; r < batch; r++ {
					w.Infer(dst, in.Row(r), s)
				}
			}
		})
	}
}
