package core_test

import (
	"testing"

	"anole/internal/core"
	"anole/internal/device"
	"anole/internal/synth"
	"anole/internal/testutil"
)

// TestProcessFrameWarmHitZeroAllocs pins the served-frame allocation
// contract: once every model is resident and the per-runtime buffers
// have grown, a cache-hit ProcessFrame — decide, rank, resolve, detect,
// score, bookkeeping — performs no heap allocations. CI's allocations
// job re-measures this pin on every push.
func TestProcessFrameWarmHitZeroAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("sync.Pool drops Puts under -race")
	}
	fx := testutil.Shared(t)
	frames := fx.Corpus.Frames(synth.Test)
	rt, err := core.NewRuntime(fx.Bundle, core.RuntimeConfig{
		CacheSlots: fx.Bundle.NumModels(),
		Device:     mustSim(device.JetsonTX2NX),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range frames {
		if _, err := rt.ProcessFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	f := frames[0]
	if _, err := rt.ProcessFrame(f); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		res, err := rt.ProcessFrame(f)
		if err != nil || !res.Hit {
			t.Fatalf("warm frame: hit=%v err=%v", res.Hit, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm-cache-hit ProcessFrame: %v allocs/op, want 0", allocs)
	}
}
