package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"

	"anole/internal/core"
	"anole/internal/detect"
	"anole/internal/modelcache"
	"anole/internal/nn"
	"anole/internal/stats"
	"anole/internal/synth"
	"anole/internal/tensor"
)

// Span names. Spans of one tick share its trace ID; a replayed layer's
// parent is its tick's replay.tick span, whose parent is the core.tick
// span it replays.
const (
	spanEpisode    = "core.episode"
	spanCall       = "core.process_streams"
	spanTick       = "core.tick"
	spanCheckpoint = "pressure.checkpoint"
	spanReplay     = "replay.tick"
	spanFeature    = "synth.feature"
	spanEmbed      = "scene.embed"
	spanScores     = "decision.scores"
	spanDetect     = "detect"
	spanCache      = "modelcache.request"
)

// maxSpans bounds the spans kept in memory; later spans still count in
// the per-name totals.
const maxSpans = 1 << 20

type span struct {
	ID     uint32 `json:"id"`
	Parent uint32 `json:"parent"`
	Trace  uint64 `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanRecorder keeps spans in memory, timed from one base, and the total
// duration per span name.
type spanRecorder struct {
	base    time.Time
	spans   []span
	nextID  uint32
	dropped int
	total   map[string]int64
}

func newSpanRecorder() *spanRecorder {
	return &spanRecorder{base: time.Now(), total: make(map[string]int64)}
}

func (r *spanRecorder) now() int64 { return int64(time.Since(r.base)) }

// reserve hands out the next span ID, so a parent can be recorded after
// its children.
func (r *spanRecorder) reserve() uint32 {
	r.nextID++
	return r.nextID
}

func (r *spanRecorder) put(id uint32, name string, parent uint32, trace uint64, start, end int64) {
	r.total[name] += end - start
	if len(r.spans) < maxSpans {
		r.spans = append(r.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Start: start, End: end})
	} else {
		r.dropped++
	}
}

func (r *spanRecorder) add(name string, parent uint32, trace uint64, start, end int64) uint32 {
	id := r.reserve()
	r.put(id, name, parent, trace, start, end)
	return id
}

// write stores the spans as JSON lines at path.
func (r *spanRecorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// replayer re-runs the reference's frames through each layer's public
// functions, in the workload's shapes, timing each layer per tick. It
// checks the replay does the reference's work: the top-ranked model must
// be the reference's Desired and the served model's detections must
// score the reference's Metrics.
type replayer struct {
	wl      *workload
	ref     *episodeOut // the reference episode being replayed
	batched bool
	workers int

	feat, emb []tensor.Vector
	scores    [][]float64
	preds     [][]detect.CellPred
	live      []int
	groups    map[*core.Bundle]*replayGroup
	order     []*replayGroup
	dets      []detGroup

	frames, mismatches int
	requests           int
	flops              float64
	detGroups          int
	ticks              int
}

// replayGroup is one bundle's batch in a tick.
type replayGroup struct {
	b              *core.Bundle
	enc, head      *nn.BatchScratch
	rows           []int // streams, in ascending order
	feats          *tensor.Matrix
	embs, scoreMat *tensor.Matrix
}

// detGroup is one (bundle, serving model) detector pass in a tick.
type detGroup struct {
	det     *detect.Detector
	streams []int
	frames  []*synth.Frame
	dsts    [][]detect.CellPred
}

func newReplayer(wl *workload, workers int) *replayer {
	n := wl.streams
	return &replayer{
		wl:      wl,
		batched: wl.mode == modeBatched,
		workers: workers,
		feat:    make([]tensor.Vector, n),
		emb:     make([]tensor.Vector, n),
		scores:  make([][]float64, n),
		preds:   make([][]detect.CellPred, n),
		groups:  make(map[*core.Bundle]*replayGroup),
	}
}

func (rp *replayer) release() {
	for _, g := range rp.groups {
		g.b.Encoder.Weights.ReleaseBatchScratch(g.enc)
		g.b.Decision.Head.ReleaseBatchScratch(g.head)
	}
	rp.groups = nil
}

// tick replays timed tick k of the episode under parent.
func (rp *replayer) tick(rec *spanRecorder, cache *modelcache.Sharded, parent uint32, trace uint64, k int) {
	t := rp.wl.warmTicks + k
	rp.live = rp.live[:0]
	for s := 0; s < rp.wl.streams; s++ {
		if v := rp.ref.results[s][t].Verdict; v == core.VerdictServed || v == core.VerdictDowngraded {
			rp.live = append(rp.live, s)
		}
	}
	rp.ticks++
	rp.frames += len(rp.live)
	if rp.batched {
		rp.decideBatched(rec, parent, trace, t)
	} else {
		rp.decideFrames(rec, parent, trace, t)
	}
	rp.detect(rec, parent, trace, t)
	rp.check(t)
	a := rec.now()
	for s := 0; s < rp.wl.streams; s++ {
		if res := rp.ref.results[s][t]; res.Desired >= 0 {
			// Only the request's cost is measured; the replay cache's
			// contents differ from the runtime's, which prefetches.
			_, _, _ = cache.Request(rp.ref.bundles[s][t].Detectors[res.Desired].Name, 1)
			rp.requests++
		}
	}
	rec.add(spanCache, parent, trace, a, rec.now())
}

// decideFrames is the per-frame (GEMV) form of model selection.
func (rp *replayer) decideFrames(rec *spanRecorder, parent uint32, trace uint64, t int) {
	a := rec.now()
	for _, s := range rp.live {
		rp.feat[s] = synth.FrameFeatureInto(rp.feat[s], rp.ref.inputs[s][t])
	}
	b := rec.now()
	for _, s := range rp.live {
		rp.emb[s] = rp.ref.bundles[s][t].Encoder.EmbedFeatureInto(rp.emb[s], rp.feat[s])
	}
	c := rec.now()
	for _, s := range rp.live {
		rp.scores[s] = rp.ref.bundles[s][t].Decision.ScoresInto(rp.scores[s], rp.emb[s])
	}
	d := rec.now()
	rec.add(spanFeature, parent, trace, a, b)
	rec.add(spanEmbed, parent, trace, b, c)
	rec.add(spanScores, parent, trace, c, d)
}

// decideBatched is the batched (GEMM) form: one encoder and one head
// pass per bundle in use, rows in ascending stream order.
func (rp *replayer) decideBatched(rec *spanRecorder, parent uint32, trace uint64, t int) {
	rp.order = rp.order[:0]
	for _, g := range rp.groups {
		g.rows = g.rows[:0]
	}
	for _, s := range rp.live {
		b := rp.ref.bundles[s][t]
		g := rp.groups[b]
		if g == nil {
			g = &replayGroup{b: b, enc: b.Encoder.Weights.AcquireBatchScratch(), head: b.Decision.Head.AcquireBatchScratch()}
			rp.groups[b] = g
		}
		if len(g.rows) == 0 {
			rp.order = append(rp.order, g)
		}
		g.rows = append(g.rows, s)
	}
	a := rec.now()
	for _, g := range rp.order {
		g.feats = g.enc.In(len(g.rows), synth.FrameFeatureDim(g.b.FeatDim))
		for r, s := range g.rows {
			synth.FrameFeatureInto(g.feats.Row(r), rp.ref.inputs[s][t])
		}
	}
	b := rec.now()
	for _, g := range rp.order {
		g.embs = g.b.Encoder.EmbedBatchInto(g.enc.Out(len(g.rows), g.b.Encoder.EmbedDim()), g.feats, g.enc)
	}
	c := rec.now()
	for _, g := range rp.order {
		g.scoreMat = g.b.Decision.ScoresBatchInto(g.head.Out(len(g.rows), g.b.NumModels()), g.embs, g.head)
	}
	d := rec.now()
	rec.add(spanFeature, parent, trace, a, b)
	rec.add(spanEmbed, parent, trace, b, c)
	rec.add(spanScores, parent, trace, c, d)
	for _, g := range rp.order {
		for r, s := range g.rows {
			rp.scores[s] = append(rp.scores[s][:0], g.scoreMat.Row(r)...)
		}
	}
}

// detect runs the serving model on every live frame: per frame with
// DetectFrame, or batched per (bundle, model) group with DetectBatch, the
// groups in parallel up to the runtime's worker budget as its batched
// tick runs them.
func (rp *replayer) detect(rec *spanRecorder, parent uint32, trace uint64, t int) {
	rp.dets = rp.dets[:0]
	index := make(map[*detect.Detector]int)
	for _, s := range rp.live {
		res := rp.ref.results[s][t]
		b := rp.ref.bundles[s][t]
		det := b.Detectors[res.Used]
		f := rp.ref.inputs[s][t]
		rp.flops += float64(b.Decision.FLOPs() + det.FrameFLOPs(f.NumCells()))
		gi, ok := index[det]
		if !ok {
			gi = len(rp.dets)
			index[det] = gi
			rp.dets = append(rp.dets, detGroup{det: det})
		}
		g := &rp.dets[gi]
		g.streams = append(g.streams, s)
		g.frames = append(g.frames, f)
		g.dsts = append(g.dsts, rp.preds[s])
	}
	rp.detGroups += len(rp.dets)
	a := rec.now()
	switch {
	case !rp.batched:
		for _, s := range rp.live {
			res := rp.ref.results[s][t]
			rp.preds[s] = rp.ref.bundles[s][t].Detectors[res.Used].DetectFrame(rp.preds[s], rp.ref.inputs[s][t])
		}
	case len(rp.dets) <= 1 || rp.workers <= 1:
		for i := range rp.dets {
			rp.dets[i].dsts = rp.dets[i].det.DetectBatch(rp.dets[i].dsts, rp.dets[i].frames)
		}
	default:
		var wg sync.WaitGroup
		sem := make(chan struct{}, rp.workers)
		for i := range rp.dets {
			wg.Add(1)
			sem <- struct{}{}
			go func(g *detGroup) {
				defer wg.Done()
				g.dsts = g.det.DetectBatch(g.dsts, g.frames)
				<-sem
			}(&rp.dets[i])
		}
		wg.Wait()
	}
	rec.add(spanDetect, parent, trace, a, rec.now())
	if rp.batched {
		for _, g := range rp.dets {
			for k, s := range g.streams {
				rp.preds[s] = g.dsts[k]
			}
		}
	}
}

// check compares the replay with the reference: top-ranked model against
// Desired, scored detections against Metrics.
func (rp *replayer) check(t int) {
	for _, s := range rp.live {
		res := rp.ref.results[s][t]
		if top := stats.RankDescending(rp.scores[s])[0]; top != res.Desired {
			rp.mismatches++
			continue
		}
		if m := detect.ScorePredictions(rp.preds[s], rp.ref.inputs[s][t]); m != res.Metrics {
			rp.mismatches++
		}
	}
}

// tracer turns traced episodes into spans and replays their ticks.
type tracer struct {
	wl       *workload
	rec      *spanRecorder
	rp       *replayer
	slots    int    // the workload's cache capacity, for the replay cache
	nextTick uint64 // trace ID of the next timed tick
	tickNs   int64  // Σ core.tick
}

// episode records one traced episode's spans: the episode, its
// ProcessStreams calls, each timed tick, each checkpoint, and the replay
// of every timed tick under it, on a fresh cache shaped like the
// runtime's.
func (tr *tracer) episode(ep, ref *episodeOut) error {
	wl := tr.wl
	tr.rp.ref = ref
	cache, err := modelcache.NewSharded(tr.slots, modelcache.LFU, min(wl.streams, tr.slots))
	if err != nil {
		return err
	}
	off := int64(ep.startAt.Sub(tr.rec.base))
	first := tr.nextTick
	epID := tr.rec.add(spanEpisode, 0, first, off, off+int64(ep.wall))
	step := wl.ticks
	if wl.checkpointEvery > 0 {
		step = wl.checkpointEvery
	}
	callIDs := make([]uint32, len(ep.calls))
	for c, iv := range ep.calls {
		callIDs[c] = tr.rec.add(spanCall, epID, first+uint64(c*step), off+iv.start, off+iv.end)
	}
	for c, iv := range ep.ckpts {
		last := min((c+1)*step, wl.ticks) - 1
		tr.rec.add(spanCheckpoint, epID, first+uint64(last), off+iv.start, off+iv.end)
	}
	var prev int64
	tickIDs := make([]uint32, len(ep.done))
	for k, d := range ep.done {
		c := k / step
		if k%step == 0 {
			prev = ep.calls[c].start
		}
		tickIDs[k] = tr.rec.add(spanTick, callIDs[c], first+uint64(k), off+prev, off+d)
		tr.tickNs += d - prev
		prev = d
	}
	for k := range ep.done {
		trace := first + uint64(k)
		rid := tr.rec.reserve()
		a := tr.rec.now()
		tr.rp.tick(tr.rec, cache, rid, trace, k)
		tr.rec.put(rid, spanReplay, tickIDs[k], trace, a, tr.rec.now())
	}
	tr.nextTick += uint64(len(ep.done))
	return nil
}

// replayNs sums the replayed layers' span time.
func (tr *tracer) replayNs() int64 {
	var n int64
	for _, name := range []string{spanFeature, spanEmbed, spanScores, spanDetect, spanCache} {
		n += tr.rec.total[name]
	}
	return n
}
