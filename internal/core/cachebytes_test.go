package core_test

import (
	"testing"

	"anole/internal/core"
	"anole/internal/modelcache"
	"anole/internal/synth"
	"anole/internal/testutil"
)

// TestRuntimeCacheBytesMatchWeightSizes pins the byte-level residency
// accounting: NewRuntime wires the cache's sizer to the bundle's frozen
// weights, so after any run BytesUsed must equal the summed
// Weights.SizeBytes of exactly the resident detectors.
func TestRuntimeCacheBytesMatchWeightSizes(t *testing.T) {
	fx := testutil.Shared(t)
	frames := fx.Corpus.Frames(synth.Test)
	if len(frames) > 150 {
		frames = frames[:150]
	}

	sizeOf := make(map[string]int64, len(fx.Bundle.Detectors))
	for _, d := range fx.Bundle.Detectors {
		if d.SizeBytes() <= 0 {
			t.Fatalf("detector %s reports non-positive size %d", d.Name, d.SizeBytes())
		}
		sizeOf[d.Name] = d.SizeBytes()
	}

	store := modelcache.MustNew(3, modelcache.LFU)
	rt, err := core.NewRuntime(fx.Bundle, core.RuntimeConfig{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range frames {
		if _, err := rt.ProcessFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	keys := store.Keys()
	if len(keys) == 0 {
		t.Fatalf("no models resident after %d frames", len(frames))
	}
	var want int64
	for _, k := range keys {
		sz, ok := sizeOf[k]
		if !ok {
			t.Fatalf("resident key %q is not a bundle detector", k)
		}
		want += sz
	}
	if got := store.BytesUsed(); got != want {
		t.Fatalf("BytesUsed %d, summed Weights.SizeBytes of residents %d", got, want)
	}
}
