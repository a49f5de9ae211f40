package core

import (
	"fmt"
	"sync"
	"time"

	"anole/internal/detect"
	"anole/internal/flight"
	"anole/internal/nn"
	"anole/internal/pressure"
	"anole/internal/synth"
	"anole/internal/telemetry"
	"anole/internal/tensor"
)

// batchMetrics are the batched-execution telemetry handles. All handles
// are nil-safe, so the zero value (no registry) costs one nil check per
// site.
type batchMetrics struct {
	// dispatches counts batched decide dispatches (one per chunk);
	// batchedFrames counts the frames those dispatches carried, so
	// batchedFrames/dispatches is the realized mean batch size.
	dispatches    *telemetry.Counter
	batchedFrames *telemetry.Counter
	// batchSize is the per-dispatch frame-count distribution.
	batchSize *telemetry.Histogram
	// occupancy is the fraction of configured streams ready in the most
	// recent tick — 1.0 while all streams still have frames, decaying as
	// shorter streams drain.
	occupancy *telemetry.Gauge
}

func newBatchMetrics(reg *telemetry.Registry) batchMetrics {
	if reg == nil {
		return batchMetrics{}
	}
	return batchMetrics{
		dispatches:    reg.Counter("anole_core_batch_dispatches_total", "batched decide dispatches"),
		batchedFrames: reg.Counter("anole_core_batched_frames_total", "frames processed through the batched path"),
		batchSize:     reg.Histogram("anole_core_batch_size_frames", "frames per batched dispatch", []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}),
		occupancy:     reg.Gauge("anole_core_tick_occupancy", "fraction of streams ready in the current tick"),
	}
}

// bundleBatch is the batched working set for one bundle: held
// encoder/head batch scratches, the chunk positions currently staged on
// it, and the per-model grouping for the detector pass. Streams on a
// heterogeneous fleet may run different planner variants, and each
// variant is its own Bundle — so batching groups by bundle, and a
// homogeneous fleet collapses to exactly one group (the original
// single-bundle fast path).
type bundleBatch struct {
	bundle *Bundle
	enc    *nn.BatchScratch // held from this bundle's encoder pool
	head   *nn.BatchScratch // held from this bundle's decision-head pool

	// posns lists the chunk positions staged on this bundle this tick;
	// embs/scores hold their batched MSS outputs row-aligned with posns.
	posns  []int
	embs   *tensor.Matrix
	scores *tensor.Matrix

	// Per model u: which chunk positions resolved to it this tick, and
	// the reusable frame/dst slices handed to DetectBatch.
	members [][]int
	gframes [][]*synth.Frame
	gdsts   [][][]detect.CellPred

	seen bool // staged frames this tick; unseen groups are pruned
}

func newBundleBatch(b *Bundle) *bundleBatch {
	n := b.NumModels()
	return &bundleBatch{
		bundle:  b,
		enc:     b.Encoder.Weights.AcquireBatchScratch(),
		head:    b.Decision.Head.AcquireBatchScratch(),
		members: make([][]int, n),
		gframes: make([][]*synth.Frame, n),
		gdsts:   make([][][]detect.CellPred, n),
	}
}

// release returns the held scratches to their bundle's pools.
func (g *bundleBatch) release() {
	g.bundle.Encoder.Weights.ReleaseBatchScratch(g.enc)
	g.bundle.Decision.Head.ReleaseBatchScratch(g.head)
	g.enc, g.head = nil, nil
}

// batchState is the reusable working set of the tick pipeline: one
// bundleBatch per distinct stream bundle (lazily created, pruned once a
// tick when a bundle falls out of use), and the per-chunk frame
// bookkeeping. It belongs to the ProcessStreams goroutine; the detector
// groups borrow disjoint slices of it.
type batchState struct {
	groups map[*Bundle]*bundleBatch
	order  []*bundleBatch // groups staged on this chunk, first-staged order

	// Per chunk position j: the shed rung the frame runs under, the
	// group and batch row it was staged on, the tracer sequence, the
	// simulated detect duration, and the in-flight frame result.
	rung    []pressure.Rung
	groupOf []*bundleBatch
	rowOf   []int
	seqs    []int64
	durs    []time.Duration
	res     []FrameResult

	// sem bounds concurrent detector groups at the worker budget.
	sem chan struct{}
}

func newBatchState(workers int) *batchState {
	return &batchState{
		groups: make(map[*Bundle]*bundleBatch),
		sem:    make(chan struct{}, workers),
	}
}

// ensure sizes the per-chunk bookkeeping for n frames.
func (bs *batchState) ensure(n int) {
	if cap(bs.res) < n {
		bs.res = make([]FrameResult, n)
		bs.rung = make([]pressure.Rung, n)
		bs.seqs = make([]int64, n)
		bs.durs = make([]time.Duration, n)
		bs.groupOf = make([]*bundleBatch, n)
		bs.rowOf = make([]int, n)
	}
	bs.res = bs.res[:n]
	bs.rung = bs.rung[:n]
	bs.seqs = bs.seqs[:n]
	bs.durs = bs.durs[:n]
	bs.groupOf = bs.groupOf[:n]
	bs.rowOf = bs.rowOf[:n]
}

// groupFor returns the bundleBatch for b, creating it on first use.
func (bs *batchState) groupFor(b *Bundle) *bundleBatch {
	g, ok := bs.groups[b]
	if !ok {
		g = newBundleBatch(b)
		bs.groups[b] = g
	}
	return g
}

// prune releases groups whose bundle staged no frame this tick — a
// re-plan or bundle swap moved its streams elsewhere — and clears the
// marks for the next tick.
func (bs *batchState) prune() {
	for b, g := range bs.groups {
		if !g.seen {
			g.release()
			delete(bs.groups, b)
		}
		g.seen = false
	}
}

// releaseAll returns every group's scratches to their pools.
func (bs *batchState) releaseAll() {
	for b, g := range bs.groups {
		g.release()
		delete(bs.groups, b)
	}
	bs.order = bs.order[:0]
}

// processTick runs one tick's ready streams through the pipeline in
// consecutive chunks of at most maxBatch frames (one frame per chunk
// with batching off). The shed rung is read once, at admission, and
// holds for the whole tick.
func (m *MultiRuntime) processTick(tick int, ready []int, streams [][]*synth.Frame, results [][]FrameResult, obs StreamObserver) error {
	rung, probe := m.admitTick(ready)
	for off := 0; off < len(ready); off += m.maxBatch {
		end := min(off+m.maxBatch, len(ready))
		if err := m.processChunk(tick, ready[off:end], rung, probe, streams, results, obs); err != nil {
			return err
		}
	}
	m.bstate.prune()
	return nil
}

// processChunk runs one chunk of a tick's ready streams through the
// frame pipeline. Its stage order is the contract for every
// configuration:
//
//  1. Admission: frames of quarantined streams are disposed, the rest
//     are validated, and frames the shed ladder drops are marked.
//  2. Decide compute: the live frames are partitioned by the bundle each
//     stream runs (one partition on a homogeneous fleet, one per planner
//     variant in use on a mixed fleet), and each partition runs the
//     scene encoder and decision head as one matrix batch.
//  3. Shared state, one frame at a time in ascending stream order: link
//     clock, hysteresis, cache resolution (or the shed ladder's
//     downgrade), device accounting and prefetch planning. The shared
//     cache, link and prefetch scheduler thus see one request order,
//     whatever the chunk size or the worker count.
//  4. Grouped detect: one batched detector pass per (bundle, serving
//     model) group, groups in parallel up to the worker budget.
//  5. Finish, in stream order: scoring, stream-private bookkeeping, shed
//     notes, the observer and the results.
//
// Per frame the arithmetic is bit-identical to Runtime.ProcessFrame: the
// batched kernels preserve each dot product's summation order and the
// stage methods are shared.
func (m *MultiRuntime) processChunk(tick int, chunk []int, rung pressure.Rung, probe int, streams [][]*synth.Frame, results [][]FrameResult, obs StreamObserver) error {
	bs := m.bstate
	bs.ensure(len(chunk))

	// Admission. Vetting the chunk before any shared clock moves keeps a
	// bad frame from leaving the chunk half processed.
	for j, i := range chunk {
		res := &bs.res[j]
		*res = FrameResult{}
		bs.rung[j] = rung
		if i == probe {
			bs.rung[j] = pressure.ShedDowngrade
		}
		if m.press.quarantined(i) {
			m.disposeQuarantined(i, res)
			continue
		}
		if err := m.streams[i].validateFrame(streams[i][tick]); err != nil {
			if err := m.frameError(i, err, res); err != nil {
				return err
			}
			continue
		}
		if bs.rung[j] >= pressure.ShedDrop {
			*res = disposedResult(VerdictShed)
		}
	}

	// Decide compute for the live frames, one matrix batch per bundle.
	// Re-plans swap bundles between ticks, never inside one, so the
	// partition is stable for the whole chunk.
	for _, g := range bs.order {
		g.posns = g.posns[:0]
	}
	bs.order = bs.order[:0]
	for j, i := range chunk {
		if bs.res[j].Verdict != VerdictServed {
			continue
		}
		g := bs.groupFor(m.streams[i].Bundle())
		if len(g.posns) == 0 {
			g.seen = true
			bs.order = append(bs.order, g)
		}
		bs.groupOf[j] = g
		bs.rowOf[j] = len(g.posns)
		g.posns = append(g.posns, j)
	}
	for _, g := range bs.order {
		rows := len(g.posns)
		feats := g.enc.In(rows, synth.FrameFeatureDim(g.bundle.FeatDim))
		for r, j := range g.posns {
			synth.FrameFeatureInto(feats.Row(r), streams[chunk[j]][tick])
		}
		g.embs = g.bundle.Encoder.EmbedBatchInto(g.enc.Out(rows, g.bundle.Encoder.EmbedDim()), feats, g.enc)
		g.scores = g.bundle.Decision.ScoresBatchInto(g.head.Out(rows, g.bundle.NumModels()), g.embs, g.head)
		m.bmet.dispatches.Inc()
		m.bmet.batchSize.Observe(float64(rows))
		m.bmet.batchedFrames.Add(int64(rows))
	}

	// Shared state, in global ascending stream order — interleaving the
	// partitions here keeps the order independent of the bundles.
	for j, i := range chunk {
		rt, f, res := m.streams[i], streams[i][tick], &bs.res[j]
		switch res.Verdict {
		case VerdictQuarantined:
			continue
		case VerdictShed:
			rt.dropFrame()
			continue
		}
		g, r := bs.groupOf[j], bs.rowOf[j]
		rt.adoptDecision(g.embs.Row(r), g.scores.Row(r))
		seq, err := rt.resolveFrame(f, bs.rung[j], res)
		if err != nil {
			if err := m.frameError(i, err, res); err != nil {
				return err
			}
			continue
		}
		bs.durs[j] = rt.detectAccount(f, res)
		bs.seqs[j] = seq
	}

	// Group frames by (bundle, serving model) and run one batched
	// detector pass per group. Each stream belongs to exactly one group,
	// so the groups touch disjoint predsBuf sets.
	groups := 0
	for _, g := range bs.order {
		for u := range g.members {
			g.members[u] = g.members[u][:0]
		}
		for _, j := range g.posns {
			if !bs.res[j].Verdict.served() {
				continue
			}
			u := bs.res[j].Used
			if len(g.members[u]) == 0 {
				groups++
			}
			g.members[u] = append(g.members[u], j)
		}
	}
	if groups <= 1 || m.workers <= 1 {
		for _, g := range bs.order {
			for u := range g.members {
				if len(g.members[u]) > 0 {
					m.detectGroup(g, tick, u, chunk, streams)
				}
			}
		}
	} else {
		var wg sync.WaitGroup
		for _, g := range bs.order {
			for u := range g.members {
				if len(g.members[u]) == 0 {
					continue
				}
				wg.Add(1)
				bs.sem <- struct{}{}
				go func(g *bundleBatch, u int) {
					defer wg.Done()
					m.detectGroup(g, tick, u, chunk, streams)
					<-bs.sem
				}(g, u)
			}
		}
		wg.Wait()
	}

	// Finish: scoring, bookkeeping, shed notes, observer, results.
	for j, i := range chunk {
		rt, f, res := m.streams[i], streams[i][tick], &bs.res[j]
		if res.Verdict.served() {
			rt.finishDetect(f, bs.seqs[j], bs.durs[j], res)
			rt.stageFinish(res)
		}
		if bs.rung[j] > pressure.ShedNone {
			m.press.noteShed(res.Verdict)
		}
		if obs != nil {
			if err := obs(i, f, *res); err != nil {
				return fmt.Errorf("core: stream %d observer: %w", i, err)
			}
		}
		results[i][tick] = *res
	}
	return nil
}

// frameError handles a frame the pipeline cannot process. Without the
// pressure machinery it aborts the run. With it, the stream is
// quarantined and the frame disposed, so the rest of the fleet keeps its
// tick rate; the watchdog releases the stream for a probe later.
func (m *MultiRuntime) frameError(i int, err error, res *FrameResult) error {
	ps := m.press
	if ps == nil {
		return fmt.Errorf("core: stream %d: %w", i, err)
	}
	if ps.wd.Quarantine(i) {
		ps.mon.NoteQuarantine()
		m.flt.Record(flight.Event{Stream: i, Kind: flight.KindQuarantine, Detail: "error"})
	}
	m.disposeQuarantined(i, res)
	return nil
}

// disposeQuarantined gives stream i's frame the quarantined verdict
// without processing it.
func (m *MultiRuntime) disposeQuarantined(i int, res *FrameResult) {
	*res = disposedResult(VerdictQuarantined)
	m.streams[i].stats.QuarantinedFrames++
	m.press.mon.NoteQuarantinedFrame()
}

// detectGroup runs one (bundle, serving model) group's batched detector
// pass over its member frames, writing each stream's predictions back
// into that stream's predsBuf for finishDetect.
func (m *MultiRuntime) detectGroup(g *bundleBatch, tick, u int, chunk []int, streams [][]*synth.Frame) {
	frames := g.gframes[u][:0]
	dsts := g.gdsts[u][:0]
	for _, j := range g.members[u] {
		i := chunk[j]
		frames = append(frames, streams[i][tick])
		dsts = append(dsts, m.streams[i].predsBuf)
	}
	out := g.bundle.Detectors[u].DetectBatch(dsts, frames)
	for k, j := range g.members[u] {
		m.streams[chunk[j]].predsBuf = out[k]
	}
	g.gframes[u], g.gdsts[u] = frames, out
}
