package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"anole/internal/detect"
	"anole/internal/nn"
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

	seen bool // staged frames this chunk; unseen groups are pruned
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

// batchState is the reusable working set of the batched event loop: one
// bundleBatch per distinct stream bundle (lazily created, pruned when a
// bundle falls out of use), and the per-chunk frame bookkeeping. It
// belongs to the ProcessStreams goroutine; the detector groups borrow
// disjoint slices of it.
type batchState struct {
	groups map[*Bundle]*bundleBatch
	order  []*bundleBatch // groups in first-staged order this chunk

	// Per chunk position j: the group and batch row the frame was staged
	// on, the tracer sequence, the simulated detect duration, and the
	// in-flight frame result.
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
		bs.seqs = make([]int64, n)
		bs.durs = make([]time.Duration, n)
		bs.groupOf = make([]*bundleBatch, n)
		bs.rowOf = make([]int, n)
	}
	bs.res = bs.res[:n]
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

// prune releases groups whose bundle staged no frame this chunk — a
// re-plan or bundle swap moved its streams elsewhere.
func (bs *batchState) prune() {
	for b, g := range bs.groups {
		if !g.seen {
			g.release()
			delete(bs.groups, b)
		}
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

// processTickBatched runs one tick's ready streams through the batched
// pipeline, in consecutive chunks of at most maxBatch frames.
func (m *MultiRuntime) processTickBatched(tick int, ready []int, streams [][]*synth.Frame, results [][]FrameResult, obs StreamObserver) error {
	for off := 0; off < len(ready); off += m.maxBatch {
		end := min(off+m.maxBatch, len(ready))
		if err := m.processChunkBatched(tick, ready[off:end], streams, results, obs); err != nil {
			return err
		}
	}
	return nil
}

// processChunkBatched is one batched dispatch: the chunk's frames are
// partitioned by the bundle each stream currently runs (one partition on
// a homogeneous fleet; one per planner variant in use on a mixed fleet),
// each partition runs the scene encoder and decision head as single
// matrix batches, then each frame's cache resolution and device
// accounting runs sequentially in GLOBAL ascending stream order (the
// shared cache and link see the same deterministic order every run),
// then frames are detected in per-(bundle, model) groups, and finally
// scoring, bookkeeping and the observer run sequentially in stream order
// again. Per frame the arithmetic is bit-identical to
// Runtime.ProcessFrame: the batched kernels preserve each dot product's
// summation order and the stage methods are shared.
func (m *MultiRuntime) processChunkBatched(tick int, chunk []int, streams [][]*synth.Frame, results [][]FrameResult, obs StreamObserver) error {
	bs := m.bstate
	n := len(chunk)
	bs.ensure(n)

	// Vet the whole chunk before touching any shared clock: a bad frame
	// must not leave half a tick processed.
	for _, i := range chunk {
		if err := m.streams[i].validateFrame(streams[i][tick]); err != nil {
			return fmt.Errorf("core: stream %d: %w", i, err)
		}
	}

	// Partition the chunk by each stream's current bundle. Re-plans swap
	// bundles between ticks, never inside one, so the partition is stable
	// for the whole chunk.
	bs.order = bs.order[:0]
	for _, g := range bs.groups {
		g.seen = false
		g.posns = g.posns[:0]
	}
	for j, i := range chunk {
		g := bs.groupFor(m.streams[i].Bundle())
		if !g.seen {
			g.seen = true
			bs.order = append(bs.order, g)
		}
		bs.groupOf[j] = g
		bs.rowOf[j] = len(g.posns)
		g.posns = append(g.posns, j)
	}

	// MSS per partition: stage every frame's feature vector as a row,
	// then one encoder pass and one head pass per bundle.
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
	}

	// Sequential backbone: clocks, hysteresis, cache and link in global
	// ascending stream order — interleaving the partitions here keeps
	// shared-state ordering identical to the unbatched loop.
	for j, i := range chunk {
		rt := m.streams[i]
		f := streams[i][tick]
		g, r := bs.groupOf[j], bs.rowOf[j]
		bs.res[j] = FrameResult{}
		seq := rt.beginFrame()
		rt.adoptDecision(g.embs.Row(r), g.scores.Row(r))
		rank := rt.stageDecide(seq, &bs.res[j])
		if err := rt.stageResolve(f, seq, rank, &bs.res[j]); err != nil {
			return fmt.Errorf("core: stream %d: %w", i, err)
		}
		bs.durs[j] = rt.detectAccount(f, &bs.res[j])
		bs.seqs[j] = seq
	}

	// Group frames by (bundle, serving model) and run one batched
	// detector pass per group — groups in parallel up to the worker
	// budget. Each stream belongs to exactly one group, so the groups
	// touch disjoint predsBuf sets.
	groups := 0
	for _, g := range bs.order {
		for u := range g.members {
			g.members[u] = g.members[u][:0]
		}
		for _, j := range g.posns {
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

	// Sequential epilogue: scoring, bookkeeping, observer, results.
	for j, i := range chunk {
		rt := m.streams[i]
		f := streams[i][tick]
		rt.finishDetect(f, bs.seqs[j], bs.durs[j], &bs.res[j])
		rt.stageFinish(&bs.res[j])
		if obs != nil {
			if err := obs(i, f, bs.res[j]); err != nil {
				return fmt.Errorf("core: stream %d observer: %w", i, err)
			}
		}
		results[i][tick] = bs.res[j]
	}

	m.bmet.batchedFrames.Add(int64(n))
	bs.prune()
	return nil
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

// tickJob is one (stream, tick) frame dispatched to the unbatched
// worker pool; pos is the frame's position in the tick's ready list.
type tickJob struct {
	stream, tick, pos int
}

// tickLoop is the unbatched event loop's persistent worker pool: the
// workers live for the whole ProcessStreams call and the pending
// WaitGroup is the per-tick barrier, so advancing a tick costs no
// goroutine churn. Within one tick each ready stream appears exactly
// once, and ticks are separated by the barrier, so no two goroutines
// ever touch one stream's runtime concurrently.
//
// Each frame's resolveFrame stages — link clock, cache resolution,
// demand fetches — run in turn, in the tick's ready order, while the
// decision and detector compute run in parallel. The shared cache thus
// sees the serial loop's request order whatever the scheduling; without
// a prefetch scheduler that makes pool results bit-identical to the
// serial loop's. With one, a stream's finish stage (prefetch planning)
// can still overtake a lower stream's resolve.
type tickLoop struct {
	m       *MultiRuntime
	streams [][]*synth.Frame
	results [][]FrameResult
	obs     StreamObserver

	jobs    chan tickJob
	workers sync.WaitGroup
	pending sync.WaitGroup

	turnMu   sync.Mutex
	turnCond *sync.Cond
	turn     int // ready position whose resolveFrame may run next

	failed   atomic.Bool
	errOnce  sync.Once
	firstErr error
}

func startTickLoop(m *MultiRuntime, streams [][]*synth.Frame, results [][]FrameResult, obs StreamObserver) *tickLoop {
	l := &tickLoop{
		m:       m,
		streams: streams,
		results: results,
		obs:     obs,
		jobs:    make(chan tickJob),
	}
	l.turnCond = sync.NewCond(&l.turnMu)
	for w := 0; w < m.workers; w++ {
		l.workers.Add(1)
		go func() {
			defer l.workers.Done()
			for j := range l.jobs {
				l.run(j)
				l.pending.Done()
			}
		}()
	}
	return l
}

// runTick dispatches one tick's ready streams to the pool and waits for
// the barrier. The WaitGroup edge makes the workers' writes (results,
// firstErr) visible here. Jobs go out in ready order, so a worker
// waiting for its turn only ever waits on frames already taken by
// running workers.
func (l *tickLoop) runTick(tick int, ready []int) error {
	l.turnMu.Lock()
	l.turn = 0
	l.turnMu.Unlock()
	l.pending.Add(len(ready))
	for pos, i := range ready {
		l.jobs <- tickJob{stream: i, tick: tick, pos: pos}
	}
	l.pending.Wait()
	if l.failed.Load() {
		return l.firstErr
	}
	return nil
}

func (l *tickLoop) run(j tickJob) {
	rt := l.m.streams[j.stream]
	f := l.streams[j.stream][j.tick]
	skip := l.failed.Load()
	err := rt.validateFrame(f)
	if !skip && err == nil {
		rt.computeDecision(f)
	}
	var (
		res FrameResult
		seq int64
	)
	// Every job takes and passes its turn, failed or not, so the
	// positions behind it never wait forever.
	l.takeTurn(j.pos)
	if !skip && err == nil {
		seq, err = rt.resolveFrame(f, &res)
	}
	l.passTurn()
	if skip {
		return
	}
	if err != nil {
		l.fail(fmt.Errorf("core: stream %d: %w", j.stream, err))
		return
	}
	rt.serveFrame(f, seq, &res)
	if l.obs != nil {
		if err := l.obs(j.stream, f, res); err != nil {
			l.fail(fmt.Errorf("core: stream %d observer: %w", j.stream, err))
			return
		}
	}
	l.results[j.stream][j.tick] = res
}

// takeTurn blocks until every frame ahead of pos in the tick's ready
// order has passed its turn.
func (l *tickLoop) takeTurn(pos int) {
	l.turnMu.Lock()
	for l.turn != pos {
		l.turnCond.Wait()
	}
	l.turnMu.Unlock()
}

// passTurn lets the next ready position take its turn.
func (l *tickLoop) passTurn() {
	l.turnMu.Lock()
	l.turn++
	l.turnMu.Unlock()
	l.turnCond.Broadcast()
}

func (l *tickLoop) fail(err error) {
	l.errOnce.Do(func() { l.firstErr = err })
	l.failed.Store(true)
}

func (l *tickLoop) stop() {
	close(l.jobs)
	l.workers.Wait()
}
