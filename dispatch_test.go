package anole_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"anole/internal/core"
	"anole/internal/device"
	"anole/internal/netsim"
	"anole/internal/prefetch"
	"anole/internal/synth"
	"anole/internal/testutil"
	"anole/internal/xrand"
)

// TestProcessStreamsModesBitIdentical pins the one-pipeline contract of
// MultiRuntime.ProcessStreams: Batch, Workers and MaxBatch change how
// frames are chunked and how many detector groups run at once, never
// the order in which shared state is touched. Over the whole
// configuration table, with and without the pressure machinery, every
// FrameResult, the aggregate RunStats and the prefetch scheduler's
// traffic must equal the first cell's, on every repeat. The workload is
// the cyclic scene workload over a cache one slot short of the cycle,
// phase-shifted by the stream index in frames and trimmed, so streams switch
// scenes on different ticks, contend for the cache and the link, and
// drain unevenly, while prefetches still complete between switches.
func TestProcessStreamsModesBitIdentical(t *testing.T) {
	fx := testutil.Shared(t)
	const streams, slots, blockLen, repeats = 4, 3, 10, 3
	workload := blockWorkload(t, fx.Bundle, fx.Corpus.Frames(synth.Test), slots+1, blockLen, 3)
	inputs := make([][]*synth.Frame, streams)
	for s := range inputs {
		rotated := append(append([]*synth.Frame{}, workload[s:]...), workload[:s]...)
		inputs[s] = rotated[:len(rotated)-3*s]
	}
	models := core.PrefetchModels(fx.Bundle)
	net := lockedLinkConfig(models, netsim.Good, 4, prefetch.DefaultFrameInterval)

	type outcome struct {
		results [][]core.FrameResult
		stats   core.RunStats
		pf      prefetch.SchedulerStats
	}
	run := func(batch bool, workers, maxBatch int, linked bool, deadline time.Duration) outcome {
		cfg := core.MultiRuntimeConfig{
			Streams:    streams,
			CacheSlots: slots,
			Fleet:      device.UniformFleet(device.JetsonTX2NX, streams),
			Workers:    workers,
			Batch:      batch,
			MaxBatch:   maxBatch,
			Deadline:   deadline,
		}
		if linked {
			link, err := netsim.NewLink(net, xrand.New(7))
			if err != nil {
				t.Fatal(err)
			}
			lf, err := prefetch.NewLinkFetcher(link, models, prefetch.DefaultFrameInterval)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Prefetch = &prefetch.Config{Fetcher: lf, TopK: 2}
		}
		mrt, err := core.NewMultiRuntime(fx.Bundle, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer mrt.Close()
		results, err := mrt.ProcessStreams(inputs, nil)
		if err != nil {
			t.Fatal(err)
		}
		out := outcome{results: results, stats: mrt.Stats()}
		if pf := mrt.Prefetcher(); pf != nil {
			out.pf = pf.Stats()
		}
		return out
	}

	for _, linked := range []bool{false, true} {
		var ref outcome
		refName := ""
		for rep := 0; rep < repeats; rep++ {
			for _, deadline := range []time.Duration{0, time.Hour} {
				for _, batch := range []bool{false, true} {
					for _, workers := range []int{1, 4} {
						for _, maxBatch := range []int{1, 3, 0} {
							name := fmt.Sprintf("prefetch=%v/deadline=%v/batch=%v/workers=%d/maxBatch=%d/repeat=%d",
								linked, deadline, batch, workers, maxBatch, rep)
							got := run(batch, workers, maxBatch, linked, deadline)
							if refName == "" {
								ref, refName = got, name
								if linked && ref.pf.Completed == 0 {
									t.Fatalf("%s: no prefetch completed; the workload does not exercise the link", name)
								}
								continue
							}
							for s := range ref.results {
								for i := range ref.results[s] {
									if got.results[s][i] != ref.results[s][i] {
										t.Fatalf("%s: stream %d frame %d diverged from %s:\n%+v\n%+v",
											name, s, i, refName, got.results[s][i], ref.results[s][i])
									}
								}
							}
							if !reflect.DeepEqual(got.stats, ref.stats) {
								t.Fatalf("%s: run stats diverged from %s:\n%+v\n%+v", name, refName, got.stats, ref.stats)
							}
							if got.pf != ref.pf {
								t.Fatalf("%s: prefetch stats diverged from %s:\n%+v\n%+v", name, refName, got.pf, ref.pf)
							}
						}
					}
				}
			}
		}
	}
}
