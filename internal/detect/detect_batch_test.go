package detect

import (
	"math"
	"testing"

	"anole/internal/synth"
	"anole/internal/xrand"
)

// naiveDetect is the independent reference both detector paths are
// checked against. Per cell it runs the head's dense layers as plain
// loops — every output one dot product summed in ascending k from zero,
// then the bias — with ReLU between them (the NewMLP default every
// detector head uses), and decodes objectness by sigmoid and class by
// first-maximum argmax. It shares no code with the batch path beyond
// feature staging.
func naiveDetect(d *Detector, f *synth.Frame) []CellPred {
	params := d.weights.Thaw().Params()
	ctx := synth.FrameFeature(f)
	preds := make([]CellPred, f.NumCells())
	for c := range preds {
		x := []float64(synth.CellInput(nil, f, c, ctx))
		for l := 0; l < len(params); l += 2 {
			w, b := params[l].Value, params[l+1].Value
			out := make([]float64, len(b))
			for o := range out {
				var sum float64
				for k := range x {
					sum += x[k] * w[o*len(x)+k]
				}
				sum += b[o]
				if l+2 < len(params) && !(sum > 0) {
					sum = 0
				}
				out[o] = sum
			}
			x = out
		}
		class := 1
		for j := 2; j < len(x); j++ {
			if x[j] > x[class] {
				class = j
			}
		}
		preds[c] = CellPred{Objectness: 1 / (1 + math.Exp(-x[0])), Class: synth.Class(class - 1)}
	}
	return preds
}

// checkAgainstReference requires DetectBatch over frames and DetectFrame
// on each frame to equal naiveDetect exactly, cell by cell.
func checkAgainstReference(t *testing.T, d *Detector, frames []*synth.Frame) {
	t.Helper()
	got := d.DetectBatch(nil, frames)
	if len(got) != len(frames) {
		t.Fatalf("%s: DetectBatch returned %d frame slots, want %d", d.Name, len(got), len(frames))
	}
	for i, f := range frames {
		want := naiveDetect(d, f)
		single := d.DetectFrame(nil, f)
		if len(got[i]) != len(want) || len(single) != len(want) {
			t.Fatalf("%s frame %d: %d batched / %d single preds, want %d", d.Name, i, len(got[i]), len(single), len(want))
		}
		for c := range want {
			if got[i][c] != want[c] {
				t.Fatalf("%s frame %d cell %d: batched %+v, reference %+v", d.Name, i, c, got[i][c], want[c])
			}
			if single[c] != want[c] {
				t.Fatalf("%s frame %d cell %d: DetectFrame %+v, reference %+v", d.Name, i, c, single[c], want[c])
			}
		}
	}
}

// TestDetectBatchMatchesDetectFrame pins the batched detector and the
// per-frame path bitwise against the naive reference, across enough
// frames to force multiple staging chunks (25 frames × 64 cells = 1600
// rows > detectBatchRows). Equality is exact: the kernels block across
// outputs but never reassociate a dot product.
func TestDetectBatchMatchesDetectFrame(t *testing.T) {
	w := newTestWorld(t, 61)
	rng := xrand.New(62)
	d := NewDetector("d", Compressed, 8, rng)
	frames := genFrames(w, synth.Scene{Weather: synth.Clear, Location: synth.Urban, Time: synth.Daytime}, 25, rng)
	checkAgainstReference(t, d, frames)
}

// TestDetectBatchMixedDetectors checks the equivalence holds for the
// deep architecture and for a quantized head — both are just other
// frozen programs behind the same batch path.
func TestDetectBatchMixedDetectors(t *testing.T) {
	w := newTestWorld(t, 63)
	rng := xrand.New(64)
	frames := genFrames(w, synth.Scene{Weather: synth.Rainy, Location: synth.Highway, Time: synth.Night}, 4, rng)

	deep := NewDetector("deep", Deep, 8, rng)
	qw, err := deep.Weights().Quantize(8)
	if err != nil {
		t.Fatal(err)
	}
	quant, err := FromWeights("deep-q8", Deep, 8, qw)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []*Detector{deep, quant} {
		checkAgainstReference(t, d, frames)
	}
}

// TestDetectFrameZeroAllocs pins the per-frame allocation contract:
// with a pre-sized dst, DetectFrame (a one-frame DetectBatch on a
// pooled batch scratch) performs no heap allocations. CI's allocations
// job re-measures this pin on every push.
func TestDetectFrameZeroAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("sync.Pool drops Puts under -race")
	}
	w := newTestWorld(t, 67)
	rng := xrand.New(68)
	f := genFrames(w, synth.Scene{Weather: synth.Clear, Location: synth.Urban}, 1, rng)[0]
	for _, arch := range []Arch{Compressed, Deep} {
		d := NewDetector(arch.Name, arch, 8, rng)
		dst := d.DetectFrame(nil, f)
		allocs := testing.AllocsPerRun(100, func() {
			dst = d.DetectFrame(dst, f)
		})
		if allocs != 0 {
			t.Fatalf("%s: DetectFrame with pre-sized dst: %v allocs/op, want 0", arch.Name, allocs)
		}
	}
}

// TestDetectBatchReusesDsts pins the dst-reuse contract: pre-sized
// per-frame slices are written in place, matching DetectFrame's reuse
// semantics, and the empty batch is a no-op.
func TestDetectBatchReusesDsts(t *testing.T) {
	w := newTestWorld(t, 65)
	rng := xrand.New(66)
	d := NewDetector("d", Compressed, 8, rng)
	frames := genFrames(w, synth.Scene{Weather: synth.Clear, Location: synth.Urban}, 3, rng)
	dsts := make([][]CellPred, len(frames))
	for i, f := range frames {
		dsts[i] = make([]CellPred, f.NumCells())
	}
	got := d.DetectBatch(dsts, frames)
	for i := range got {
		if &got[i][0] != &dsts[i][0] {
			t.Fatalf("frame %d: DetectBatch should reuse the pre-sized dst slice", i)
		}
	}
	if out := d.DetectBatch(nil, nil); len(out) != 0 {
		t.Fatalf("empty batch returned %d slots", len(out))
	}
}
