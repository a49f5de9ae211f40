// Package detect implements the object-detection task on synth frames: a
// grid detector applies a shared per-cell MLP head to every cell of the
// feature grid, predicting objectness and object class. Two architecture
// configurations mirror the paper's detector pair — Deep (the YOLOv3
// analogue) and Compressed (the YOLOv3-tiny analogue) — with roughly a 10×
// FLOPs gap, and evaluation reports precision/recall/F1 by cell-level
// matching.
package detect

import (
	"fmt"
	"math"

	"anole/internal/nn"
	"anole/internal/stats"
	"anole/internal/synth"
	"anole/internal/tensor"
	"anole/internal/xrand"
)

// Arch names a detector architecture: the hidden widths of the per-cell
// head.
type Arch struct {
	Name   string
	Hidden []int
}

// Deep is the large-detector configuration (YOLOv3 analogue) and
// Compressed the small one (YOLOv3-tiny analogue). With the default
// 18-dimensional cell input their per-frame FLOPs differ by roughly the
// paper's 10×.
var (
	Deep       = Arch{Name: "deep", Hidden: []int{56, 48}}
	Compressed = Arch{Name: "compressed", Hidden: []int{16}}
)

// Detector is a grid detector over an immutable per-cell head. The
// frozen weights carry no execution state, so one Detector serves any
// number of goroutines concurrently — streams, workers, and cache
// entries all share the same resident copy. Training state exists only
// transiently inside Train (thaw → fit → refreeze).
type Detector struct {
	// Name identifies the model (e.g. "M_7" for a scene-specific
	// compressed model, "SDM" for the deep baseline).
	Name string
	Arch Arch

	weights *nn.Weights
	featDim int
}

// NewDetector constructs a detector head for frames with the given
// per-cell feature dimension.
func NewDetector(name string, arch Arch, featDim int, rng *xrand.RNG) *Detector {
	net := nn.NewMLP(nn.MLPConfig{
		InDim:  synth.CellInputDim(featDim),
		Hidden: arch.Hidden,
		OutDim: synth.DetectorOutDim,
	}, rng)
	return &Detector{Name: name, Arch: arch, weights: net.Freeze(), featDim: featDim}
}

// FromWeights wraps frozen (e.g. deserialized or quantized) weights as a
// detector. The input dimension must match CellInputDim(featDim).
func FromWeights(name string, arch Arch, featDim int, w *nn.Weights) (*Detector, error) {
	if w.InDim() != synth.CellInputDim(featDim) {
		return nil, fmt.Errorf("detect: network input %d, want %d", w.InDim(), synth.CellInputDim(featDim))
	}
	if w.OutDim() != synth.DetectorOutDim {
		return nil, fmt.Errorf("detect: network output %d, want %d", w.OutDim(), synth.DetectorOutDim)
	}
	return &Detector{Name: name, Arch: arch, weights: w, featDim: featDim}, nil
}

// FromNetwork freezes an existing (e.g. freshly trained) network and
// wraps it as a detector.
func FromNetwork(name string, arch Arch, featDim int, net *nn.Network) (*Detector, error) {
	return FromWeights(name, arch, featDim, net.Freeze())
}

// FeatDim returns the per-cell feature dimension the detector expects.
func (d *Detector) FeatDim() int { return d.featDim }

// Weights exposes the frozen per-cell head program (for serialization,
// quantization, and byte-level cache accounting).
func (d *Detector) Weights() *nn.Weights { return d.weights }

// WeightBytes returns the serialized parameter size of the head.
func (d *Detector) WeightBytes() int64 { return d.weights.WeightBytes() }

// SizeBytes returns the exact serialized size of the head program — the
// figure the model cache uses for resident-set accounting.
func (d *Detector) SizeBytes() int64 { return d.weights.SizeBytes() }

// FLOPs returns the per-cell head cost of one forward pass.
func (d *Detector) FLOPs() int64 { return d.weights.FLOPs() }

// FrameFLOPs returns the FLOPs of detecting one full frame with cells
// grid cells.
func (d *Detector) FrameFLOPs(cells int) int64 {
	return d.weights.FLOPs() * int64(cells)
}

// CellPred is the detector output for one cell.
type CellPred struct {
	Objectness float64 // sigmoid probability of an object
	Class      synth.Class
}

// objectnessThreshold converts the objectness probability into a
// detection decision.
const objectnessThreshold = 0.5

// DetectFrame runs the head over every cell of f, writing predictions
// into dst (reused when correctly sized) and returning it. It is
// DetectBatch on a batch of one frame — the same staging, the same
// matrix products and the same decode — so the two paths agree bit for
// bit by construction. Safe to call concurrently on one shared
// Detector; with a pre-sized dst the steady state performs no heap
// allocations.
func (d *Detector) DetectFrame(dst []CellPred, f *synth.Frame) []CellPred {
	frames := [1]*synth.Frame{f}
	dsts := [1][]CellPred{dst}
	d.DetectBatch(dsts[:], frames[:])
	return dsts[0]
}

// detectBatchRows bounds how many cell rows DetectBatch stages per
// matrix product, so batching over many frames keeps a fixed working
// set instead of materializing frames × cells rows at once.
const detectBatchRows = 512

// DetectBatch runs the head over every cell of every frame, batched:
// cell inputs are assembled into a staging matrix (whole frames at a
// time, flushed at detectBatchRows rows) and each dense layer runs as
// one matrix product for the chunk instead of one per cell. dsts is
// reused per frame when correctly sized, exactly like DetectFrame's
// dst. Safe to call concurrently on one shared Detector; with
// pre-sized dsts the steady state performs no heap allocations.
func (d *Detector) DetectBatch(dsts [][]CellPred, frames []*synth.Frame) [][]CellPred {
	if len(dsts) != len(frames) {
		dsts = make([][]CellPred, len(frames))
	}
	if len(frames) == 0 {
		return dsts
	}
	bs := d.weights.AcquireBatchScratch()
	start := 0
	for start < len(frames) {
		// Take whole frames until the chunk would exceed the row budget
		// (always at least one frame, however many cells it has).
		end, rows := start, 0
		for end < len(frames) {
			cells := frames[end].NumCells()
			if end > start && rows+cells > detectBatchRows {
				break
			}
			rows += cells
			end++
		}
		d.detectChunk(bs, dsts[start:end], frames[start:end], rows)
		start = end
	}
	d.weights.ReleaseBatchScratch(bs)
	return dsts
}

// detectChunk runs the head over the rows cells of frames as one batch
// and decodes each cell's objectness (sigmoid) and class (argmax) into
// dsts, resizing a frame's slice only when its length is wrong. The
// cells are staged in bs's input matrix; the row just past them holds
// the current frame's context descriptor (FrameFeatureDim and
// CellInputDim coincide), so staging needs no buffer of its own.
func (d *Detector) detectChunk(bs *nn.BatchScratch, dsts [][]CellPred, frames []*synth.Frame, rows int) {
	inDim := d.weights.InDim()
	ctx := bs.In(rows+1, inDim).Row(rows)
	in := bs.In(rows, inDim)
	r := 0
	for _, f := range frames {
		ctx = synth.FrameFeatureInto(ctx, f)
		for c := 0; c < f.NumCells(); c++ {
			synth.CellInput(in.Row(r), f, c, ctx)
			r++
		}
	}
	out := d.weights.InferBatch(bs.Out(rows, d.weights.OutDim()), in, bs)
	r = 0
	for j, f := range frames {
		cells := f.NumCells()
		if len(dsts[j]) != cells {
			dsts[j] = make([]CellPred, cells)
		}
		for c := range dsts[j] {
			orow := out.Row(r)
			obj := 1 / (1 + math.Exp(-orow[0]))
			classIdx := tensor.Vector(orow[1:]).Argmax()
			dsts[j][c] = CellPred{Objectness: obj, Class: synth.Class(classIdx)}
			r++
		}
	}
}

// EvaluateFrame scores the detector on one frame with cell-level
// matching: a true positive requires a predicted object on a cell holding
// an object of the predicted class; a class mistake counts as both a
// false positive and a missed object.
func (d *Detector) EvaluateFrame(f *synth.Frame) stats.PRF1 {
	preds := d.DetectFrame(nil, f)
	return ScorePredictions(preds, f)
}

// ScorePredictions computes the matching counts between per-cell
// predictions and frame ground truth.
func ScorePredictions(preds []CellPred, f *synth.Frame) stats.PRF1 {
	var tp, fp, fn int
	for c := 0; c < f.NumCells(); c++ {
		predicted := preds[c].Objectness > objectnessThreshold
		truth, hasObj := f.ObjectAt(c)
		switch {
		case predicted && hasObj && preds[c].Class == truth.Class:
			tp++
		case predicted && hasObj:
			fp++
			fn++
		case predicted:
			fp++
		case hasObj:
			fn++
		}
	}
	return stats.ComputePRF1(tp, fp, fn)
}

// EvaluateFrames accumulates matching counts over frames and returns the
// aggregate metrics.
func (d *Detector) EvaluateFrames(frames []*synth.Frame) stats.PRF1 {
	var agg stats.PRF1
	for _, f := range frames {
		agg = agg.Add(d.EvaluateFrame(f))
	}
	return agg
}

// TrainConfig controls detector training.
type TrainConfig struct {
	// Epochs, BatchSize and LR configure the underlying nn.Train run
	// (defaults 12, 32, 0.01).
	Epochs    int
	BatchSize int
	LR        float64
	// BackgroundPerObject is the number of background cells sampled per
	// object cell when building training samples (default 1.5). Using
	// every background cell would drown the loss in negatives.
	BackgroundPerObject float64
	// Patience enables early stopping on validation loss when > 0.
	Patience int
	// Workers shards gradient computation (default 1).
	Workers int
	// RNG drives sampling and initialization; required.
	RNG *xrand.RNG
}

func (c *TrainConfig) setDefaults() {
	if c.Epochs <= 0 {
		c.Epochs = 25
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 32
	}
	if c.LR <= 0 {
		c.LR = 0.01
	}
	if c.BackgroundPerObject <= 0 {
		c.BackgroundPerObject = 1.5
	}
	if c.RNG == nil {
		c.RNG = xrand.New(0)
	}
}

// BuildSamples converts frames into per-cell training samples: every
// object cell plus bgPerObject background cells per object (at least one
// background cell per frame), so the detector sees a balanced objectness
// signal.
func BuildSamples(frames []*synth.Frame, bgPerObject float64, rng *xrand.RNG) []nn.Sample {
	var samples []nn.Sample
	for _, f := range frames {
		ctx := synth.FrameFeature(f)
		occupied := make(map[int]bool, len(f.Objects))
		for _, o := range f.Objects {
			occupied[o.Cell] = true
			samples = append(samples, nn.Sample{
				X: synth.CellInput(nil, f, o.Cell, ctx),
				Y: synth.CellTarget(nil, f, o.Cell),
			})
		}
		nBG := int(bgPerObject*float64(len(f.Objects)) + 0.5)
		if nBG < 1 {
			nBG = 1
		}
		cells := f.NumCells()
		for k := 0; k < nBG; k++ {
			c := rng.Intn(cells)
			if occupied[c] {
				continue // keep the negative pool clean; skip silently
			}
			samples = append(samples, nn.Sample{
				X: synth.CellInput(nil, f, c, ctx),
				Y: synth.CellTarget(nil, f, c),
			})
		}
	}
	return samples
}

// Train fits the detector to the training frames with BCE-with-logits on
// the objectness/class head. The frozen weights are thawed into a
// transient nn.Trainable, fitted, and refrozen; inference on the old
// weights may continue concurrently in other goroutines (they keep the
// program they hold), but Train itself must not race with another Train
// on the same Detector.
func (d *Detector) Train(trainFrames, valFrames []*synth.Frame, cfg TrainConfig) error {
	cfg.setDefaults()
	train := BuildSamples(trainFrames, cfg.BackgroundPerObject, cfg.RNG)
	if len(train) == 0 {
		return fmt.Errorf("detect: no training samples from %d frames", len(trainFrames))
	}
	var val []nn.Sample
	if len(valFrames) > 0 && cfg.Patience > 0 {
		val = BuildSamples(valFrames, cfg.BackgroundPerObject, cfg.RNG)
	}
	tr := nn.ThawTrainable(d.weights)
	_, err := tr.Train(train, val, nn.TrainConfig{
		Epochs:    cfg.Epochs,
		BatchSize: cfg.BatchSize,
		Loss:      nn.NewBCEWithLogits(),
		Optimizer: nn.NewAdam(cfg.LR),
		RNG:       cfg.RNG,
		Patience:  cfg.Patience,
		Workers:   cfg.Workers,
	})
	if err != nil {
		return fmt.Errorf("detect: train %s: %w", d.Name, err)
	}
	d.weights = tr.Freeze()
	return nil
}

// WindowedF1 returns the F1 score of the detector computed over
// consecutive windows of `window` frames of a clip, the form plotted in
// Fig. 8 ("F1 score is calculated every ten frames").
func (d *Detector) WindowedF1(frames []*synth.Frame, window int) []float64 {
	if window <= 0 {
		window = 10
	}
	var out []float64
	for start := 0; start < len(frames); start += window {
		end := start + window
		if end > len(frames) {
			end = len(frames)
		}
		var agg stats.PRF1
		for _, f := range frames[start:end] {
			agg = agg.Add(d.EvaluateFrame(f))
		}
		out = append(out, agg.F1)
	}
	return out
}
