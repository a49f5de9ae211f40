package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"anole/internal/core"
	"anole/internal/decision"
	"anole/internal/detect"
	"anole/internal/device"
	"anole/internal/nn"
	"anole/internal/prefetch"
	"anole/internal/repo"
	"anole/internal/scene"
	"anole/internal/synth"
	"anole/internal/telemetry"
	"anole/internal/trace"
	"anole/internal/xrand"
)

func TestRunRejectsUnknownDevice(t *testing.T) {
	err := run(io.Discard, []string{"-bundle", "/nonexistent", "-device", "gpu9000"})
	if err == nil {
		t.Fatal("expected error")
	}
}

func TestRunRejectsMissingBundle(t *testing.T) {
	err := run(io.Discard, []string{"-bundle", "/nonexistent.bundle"})
	if err == nil || !strings.Contains(err.Error(), "repo") {
		t.Fatalf("expected repo load error, got %v", err)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run(io.Discard, []string{"-clips", "notanumber"}); err == nil {
		t.Fatal("expected flag parse error")
	}
}

func TestRunRejectsBadStreams(t *testing.T) {
	err := run(io.Discard, []string{"-streams", "0"})
	if err == nil || !strings.Contains(err.Error(), "-streams") {
		t.Fatalf("expected streams validation error, got %v", err)
	}
}

// cheapBundlePath saves an untrained but structurally valid bundle whose
// feature dimension matches synth.DefaultConfig, so run() can stream
// generated frames through it without paying for profiling.
func cheapBundlePath(t *testing.T) string {
	return cheapBundlePathSeed(t, 7)
}

// cheapBundlePathSeed is cheapBundlePath with a chosen generator seed:
// the untrained decision head's switching behavior on the default trace
// depends on its random weights, so tests that need scene switches (and
// thus link traffic) pick a seed whose head discriminates between
// frames.
func cheapBundlePathSeed(t *testing.T, seed uint64) string {
	t.Helper()
	featDim := synth.DefaultConfig(1).FeatDim
	rng := xrand.NewLabeled(seed, "anole-run-test-bundle")
	const embedDim, models = 4, 3
	encNet := nn.NewMLP(nn.MLPConfig{
		InDim: synth.FrameFeatureDim(featDim), Hidden: []int{6, embedDim}, OutDim: 2,
	}, rng)
	enc, err := scene.FromParts(encNet.Freeze(), []int{0, 1}, embedDim)
	if err != nil {
		t.Fatal(err)
	}
	head := nn.NewMLP(nn.MLPConfig{InDim: embedDim, Hidden: []int{5}, OutDim: models}, rng)
	dec, err := decision.FromParts(enc, head.Freeze())
	if err != nil {
		t.Fatal(err)
	}
	detectors := make([]*detect.Detector, models)
	infos := make([]core.ModelInfo, models)
	for i := range detectors {
		detectors[i] = detect.NewDetector(fmt.Sprintf("M_%d", i), detect.Compressed, featDim, rng)
		infos[i] = core.ModelInfo{
			Name: detectors[i].Name, Level: i, Cluster: i,
			TrainScenes: []int{i}, ValF1: 0.5,
		}
	}
	b := &core.Bundle{
		Encoder:   enc,
		Decision:  dec,
		Detectors: detectors,
		Infos:     infos,
		FeatDim:   featDim,
	}
	// Calibrate novelty on the two known scenes so drift signals are live
	// (an uncalibrated bundle scores every frame 0).
	world, err := synth.NewWorld(synth.DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	crng := xrand.NewLabeled(seed, "anole-run-test-calibrate")
	var cal []*synth.Frame
	for _, idx := range []int{0, 1} {
		for i := 0; i < 20; i++ {
			cal = append(cal, world.GenerateFrame(synth.SceneFromIndex(idx), 1, crng))
		}
	}
	b.CalibrateNovelty(cal)
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "test.bundle")
	if err := repo.SaveFile(path, b); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunSingleStream(t *testing.T) {
	path := cheapBundlePath(t)
	var out strings.Builder
	err := run(&out, []string{"-bundle", path, "-clips", "1", "-frames", "12", "-cache", "2"})
	if err != nil {
		t.Fatal(err)
	}
	// A one-stream run prints the multi-stream summary, which carries
	// every number of a device run: F1 with P/R, mean scene duration,
	// mean simulated latency, FPS, power, energy and memory.
	for _, want := range []string{
		"streaming 1 streams x 1 clips x 12 frames on Jetson TX2 NX",
		"stream 0: 12 frames", "FPS busy", "W avg", "memory resident", "peak",
		"aggregate: frames 12", "mean scene duration", "(P ", "shared cache:",
		"ms/frame",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestRunOneStreamMatchesRuntime pins a one-stream run, which goes
// through core.MultiRuntime like every other stream count, to a
// reference single-stream loop: core.NewRuntime + ProcessFrame over the
// same generated frames, wired with the same device, link, registry and
// span tracer. The trace file (written to the -trace path itself) must
// be byte-identical, every -json field equal, every reference metric
// present with the same value, and the spans equal (start times only
// when the simulated link clock sets them).
func TestRunOneStreamMatchesRuntime(t *testing.T) {
	path := cheapBundlePathSeed(t, 13)
	const clips, cacheSlots = 2, 2
	chaos := &chaosConfig{OutageRate: 0.4, CorruptRate: 0.1, BreakerThreshold: 2, BreakerCooldown: 10}
	cases := []struct {
		name              string
		frames            int // per clip
		args              []string
		prefetch, thermal bool
		chaos             *chaosConfig
	}{
		{name: "none", frames: 150},
		{name: "prefetch", frames: 150, args: []string{"-prefetch"}, prefetch: true},
		{name: "chaos", frames: 150, args: []string{"-chaos", "-outage-rate", "0.4", "-corrupt-rate", "0.1",
			"-breaker-threshold", "2", "-breaker-cooldown", "10"}, prefetch: true, chaos: chaos},
		// The default thermal model heats only over busy inference time
		// (about 7 ms a frame here); 5000 frames carry the device past
		// its envelope, so throttled latencies reach the trace.
		{name: "thermal", frames: 2500, args: []string{"-thermal"}, thermal: true},
		{name: "batch", frames: 150, args: []string{"-batch"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			tracePath, jsonPath := filepath.Join(dir, "run.jsonl"), filepath.Join(dir, "stats.json")
			args := append([]string{
				"-bundle", path, "-streams", "1", "-clips", fmt.Sprint(clips),
				"-frames", fmt.Sprint(tc.frames), "-cache", fmt.Sprint(cacheSlots),
				"-trace", tracePath, "-json", jsonPath,
			}, tc.args...)
			if err := run(io.Discard, args); err != nil {
				t.Fatal(err)
			}
			gotTrace, err := os.ReadFile(tracePath)
			if err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(jsonPath)
			if err != nil {
				t.Fatal(err)
			}
			var got report
			if err := json.Unmarshal(raw, &got); err != nil {
				t.Fatal(err)
			}

			// The reference: the single-stream Runtime loop.
			bundle, err := repo.LoadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			reg := telemetry.NewRegistry()
			var pfCfg *prefetch.Config
			var spanClock func() time.Duration
			if tc.prefetch {
				pf, lf, err := linkPrefetchConfig(bundle, 0.7, 0, 1, tc.chaos, reg)
				if err != nil {
					t.Fatal(err)
				}
				pfCfg, spanClock = pf, lf.Now
			}
			spans := telemetry.NewTracer(0, spanClock)
			sim, err := device.NewSimulator(device.JetsonTX2NX)
			if err != nil {
				t.Fatal(err)
			}
			if tc.thermal {
				sim.EnableThermal(device.DefaultThermal())
			}
			rt, err := core.NewRuntime(bundle, core.RuntimeConfig{
				CacheSlots: cacheSlots, Device: sim, Prefetch: pfCfg, Metrics: reg, Tracer: spans,
			})
			if err != nil {
				t.Fatal(err)
			}
			var wantTrace bytes.Buffer
			tw := trace.NewWriter(&wantTrace)
			world, err := synth.NewWorld(synth.DefaultConfig(1))
			if err != nil {
				t.Fatal(err)
			}
			traceProfile := synth.DefaultProfiles(1)[1]
			traceProfile.FramesPerClip = tc.frames
			rng := xrand.NewLabeled(1, "anole-run-trace")
			for c := 0; c < clips; c++ {
				clip := world.GenerateClip(traceProfile, 9000+c, rng.Split(uint64(c)))
				for _, f := range clip.Frames {
					res, err := rt.ProcessFrame(f)
					if err != nil {
						t.Fatal(err)
					}
					if err := tw.Record(bundle, f, res); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := tw.Flush(); err != nil {
				t.Fatal(err)
			}
			sched := rt.Prefetcher()
			rt.Close()
			refRaw, err := json.Marshal(buildReport(rt.Stats(), sched, pfBreaker(pfCfg), nil, nil, nil, nil, reg, spans))
			if err != nil {
				t.Fatal(err)
			}
			var want report
			if err := json.Unmarshal(refRaw, &want); err != nil {
				t.Fatal(err)
			}

			if tc.thermal && sim.Heat() <= 1 {
				t.Errorf("heat %.3f never passed the throttle threshold 1", sim.Heat())
			}
			if tw.Count() != clips*tc.frames || !bytes.Equal(gotTrace, wantTrace.Bytes()) {
				t.Errorf("trace differs from the reference (%d vs %d bytes)", len(gotTrace), wantTrace.Len())
			}
			for name, v := range want.Metrics {
				if g, ok := got.Metrics[name]; !ok || g != v {
					t.Errorf("metric %s = %v (present %v), reference %v", name, g, ok, v)
				}
			}
			if len(got.Spans) != len(want.Spans) {
				t.Errorf("%d spans, reference %d", len(got.Spans), len(want.Spans))
			} else {
				for i := range want.Spans {
					g, w := got.Spans[i], want.Spans[i]
					if spanClock == nil {
						g.Start, w.Start = 0, 0
					}
					if g != w {
						t.Errorf("span %d = %+v, reference %+v", i, g, w)
						break
					}
				}
			}
			got.Metrics, got.Spans, want.Metrics, want.Spans = nil, nil, nil, nil
			if !reflect.DeepEqual(got, want) {
				t.Errorf("report differs from the reference:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestRunOneStreamFleetObservability runs the overload, observability
// and fleet flags on a single stream, which the one tick pipeline
// serves like any other stream count.
func TestRunOneStreamFleetObservability(t *testing.T) {
	path := cheapBundlePath(t)
	dir := t.TempDir()
	jsonPath, ckptPath := filepath.Join(dir, "stats.json"), filepath.Join(dir, "run.ckpt")
	var out strings.Builder
	err := run(&out, []string{
		"-bundle", path, "-streams", "1", "-clips", "1", "-frames", "30", "-cache", "2",
		"-deadline", "60ms", "-slo", "-flight", "-fleet", "nano:1", "-checkpoint", ckptPath,
		"-json", jsonPath,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"stream 0 [nano]:", "fleet nano (Jetson Nano):", "pressure: level", "slo: p99", "flight:", "checkpoint: wrote"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Frames+rep.Pressure.ShedFrames+rep.Pressure.QuarantinedFrames != 30 {
		t.Errorf("frames %d + shed %d + quarantined %d, want 30 offered", rep.Frames, rep.Pressure.ShedFrames, rep.Pressure.QuarantinedFrames)
	}
	if rep.SLO == nil || rep.Flight == nil || len(rep.Fleet) != 1 || rep.Fleet[0].Streams != 1 {
		t.Fatalf("report missing a block: slo=%v flight=%v fleet=%+v", rep.SLO != nil, rep.Flight != nil, rep.Fleet)
	}
	if _, err := os.Stat(ckptPath); err != nil {
		t.Fatal(err)
	}
}

func TestRunSingleStreamPrefetchJSON(t *testing.T) {
	path := cheapBundlePath(t)
	jsonPath := filepath.Join(t.TempDir(), "stats.json")
	var out strings.Builder
	err := run(&out, []string{
		"-bundle", path, "-clips", "2", "-frames", "30", "-cache", "2",
		"-prefetch", "-link-stability", "0.9", "-prefetch-budget", "100000000",
		"-json", jsonPath,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"link: cold misses", "prefetch: issued"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("stats JSON: %v\n%s", err, raw)
	}
	if rep.Frames != 60 {
		t.Fatalf("frames %d, want 60", rep.Frames)
	}
	if rep.ColdMisses == 0 || rep.FetchStallMs <= 0 {
		t.Fatalf("no link activity in report: %+v", rep)
	}
	if rep.Scheduler == nil {
		t.Fatal("report missing scheduler stats")
	}
	if rep.CacheHits+rep.CacheMisses == 0 {
		t.Fatal("report missing cache counters")
	}
}

func TestRunChaosJSON(t *testing.T) {
	path := cheapBundlePath(t)
	jsonPath := filepath.Join(t.TempDir(), "stats.json")
	var out strings.Builder
	err := run(&out, []string{
		"-bundle", path, "-clips", "2", "-frames", "30", "-cache", "2",
		"-chaos", "-outage-rate", "0.4", "-corrupt-rate", "0.1",
		"-breaker-threshold", "2", "-breaker-cooldown", "10",
		"-link-stability", "0.5", "-json", jsonPath,
	})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("stats JSON: %v\n%s", err, raw)
	}
	// -chaos implies -prefetch; every frame must still be processed.
	if rep.Frames != 60 {
		t.Fatalf("frames %d, want 60", rep.Frames)
	}
	if rep.Scheduler == nil {
		t.Fatal("report missing scheduler stats")
	}
	// The counters must be present in the JSON even when zero.
	for _, key := range []string{"degradedFrames", "fallbackServed", "breakerOpens"} {
		if !strings.Contains(string(raw), key) {
			t.Errorf("report JSON missing %q:\n%s", key, raw)
		}
	}
}

func TestRunJSONToStdout(t *testing.T) {
	path := cheapBundlePath(t)
	var out strings.Builder
	err := run(&out, []string{
		"-bundle", path, "-clips", "1", "-frames", "10", "-cache", "2", "-json", "-",
	})
	if err != nil {
		t.Fatal(err)
	}
	// The JSON object is the tail of the output.
	idx := strings.Index(out.String(), "{")
	if idx < 0 {
		t.Fatalf("no JSON in output:\n%s", out.String())
	}
	var rep report
	if err := json.Unmarshal([]byte(out.String()[idx:]), &rep); err != nil {
		t.Fatalf("stats JSON: %v", err)
	}
	if rep.Frames != 10 || rep.Scheduler != nil {
		t.Fatalf("unexpected report: %+v", rep)
	}
}

func TestRunMultiStreamPrefetchJSON(t *testing.T) {
	path := cheapBundlePath(t)
	jsonPath := filepath.Join(t.TempDir(), "stats.json")
	var out strings.Builder
	err := run(&out, []string{
		"-bundle", path, "-streams", "2", "-clips", "1", "-frames", "25",
		"-cache", "2", "-prefetch", "-json", jsonPath,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "link: cold misses") {
		t.Errorf("output missing link summary:\n%s", out.String())
	}
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("stats JSON: %v\n%s", err, raw)
	}
	if rep.Frames != 50 || rep.Scheduler == nil {
		t.Fatalf("unexpected report: %+v", rep)
	}
	if rep.ColdMisses == 0 {
		t.Fatal("no cold misses across streams")
	}
}

func TestRunMultiStream(t *testing.T) {
	path := cheapBundlePath(t)
	tracePath := filepath.Join(t.TempDir(), "run.trace")
	const streams, frames = 3, 15
	var out strings.Builder
	err := run(&out, []string{
		"-bundle", path, "-streams", fmt.Sprint(streams),
		"-clips", "1", "-frames", fmt.Sprint(frames),
		"-cache", "2", "-trace", tracePath,
	})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < streams; s++ {
		if !strings.Contains(out.String(), fmt.Sprintf("stream %d:", s)) {
			t.Errorf("output missing stream %d line:\n%s", s, out.String())
		}
	}
	for _, want := range []string{"aggregate:", "shared cache:", "simulated makespan"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
	// Every stream must have written a complete, readable trace.
	for s := 0; s < streams; s++ {
		f, err := os.Open(fmt.Sprintf("%s.stream%d", tracePath, s))
		if err != nil {
			t.Fatal(err)
		}
		events, err := trace.Read(f)
		f.Close()
		if err != nil {
			t.Fatalf("stream %d trace: %v", s, err)
		}
		if len(events) != frames {
			t.Errorf("stream %d trace has %d events, want %d", s, len(events), frames)
		}
	}
}

func TestRunAdaptRequiresMultiStream(t *testing.T) {
	err := run(io.Discard, []string{"-bundle", cheapBundlePath(t), "-adapt"})
	if err == nil || !strings.Contains(err.Error(), "-adapt") {
		t.Fatalf("expected -adapt stream validation error, got %v", err)
	}
}

func TestRunAdaptJSON(t *testing.T) {
	path := cheapBundlePath(t)
	jsonPath := filepath.Join(t.TempDir(), "stats.json")
	var out strings.Builder
	err := run(&out, []string{
		"-bundle", path, "-streams", "2", "-clips", "1", "-frames", "90",
		"-cache", "4", "-adapt", "-drift-window", "15", "-canary-frames", "30",
		"-json", jsonPath,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"adapt: stream 0 enters unseen scene", "fleet generation"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("stats JSON: %v\n%s", err, raw)
	}
	if rep.Adapt == nil {
		t.Fatalf("report missing adapt block:\n%s", raw)
	}
	if rep.Adapt.FleetGeneration < 1 {
		t.Fatalf("fleet generation %d", rep.Adapt.FleetGeneration)
	}
	// The canary stream spends the whole run in the unseen scene with a
	// calibrated novelty signal, so drift must be detected and reported
	// (this is deterministic for the fixed bundle seed and trace seed).
	if rep.Adapt.DriftEvents == 0 || rep.Adapt.ReportsSent == 0 {
		t.Fatalf("adaptation loop saw no drift: %+v", *rep.Adapt)
	}
	for _, key := range []string{"driftEvents", "reportsSent", "canaryStarts", "fleetGeneration"} {
		if !strings.Contains(string(raw), key) {
			t.Errorf("report JSON missing %q", key)
		}
	}
}

func TestRunRejectsBadFleetFlags(t *testing.T) {
	cases := map[string][]string{
		"plan without fleet": {"-streams", "2", "-plan"},
		"plan with adapt":    {"-streams", "2", "-fleet", "nano:1,tx2:1", "-plan", "-adapt"},
	}
	for name, args := range cases {
		if err := run(io.Discard, args); err == nil {
			t.Errorf("%s: expected validation error", name)
		}
	}
	// A malformed spec fails before any streaming.
	path := cheapBundlePath(t)
	err := run(io.Discard, []string{"-bundle", path, "-streams", "2", "-fleet", "warp9:1"})
	if err == nil || !strings.Contains(err.Error(), "warp9") {
		t.Fatalf("expected unknown-profile error, got %v", err)
	}
}

// TestRunFleetPlanJSON drives a planned mixed fleet end to end with SLO
// evaluation: the summary must carry per-class fleet lines with planner
// variants, and the -json report must contain the "fleet" block, the
// per-class SLO percentiles and the anole_fleet_* / anole_plan_* series.
func TestRunFleetPlanJSON(t *testing.T) {
	path := cheapBundlePath(t)
	jsonPath := filepath.Join(t.TempDir(), "stats.json")
	const streams = 4
	var out strings.Builder
	err := run(&out, []string{
		"-bundle", path, "-streams", fmt.Sprint(streams),
		"-clips", "1", "-frames", "20", "-cache", "12",
		"-fleet", "nano:1,tx2:1", "-plan", "-slo", "-json", jsonPath,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fleet nano (Jetson Nano):", "fleet tx2 (Jetson TX2 NX):", "variants", "slo fleet nano:"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}

	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("stats JSON: %v\n%s", err, raw)
	}
	if len(rep.Fleet) != 2 {
		t.Fatalf("fleet block %+v, want nano and tx2", rep.Fleet)
	}
	total := 0
	for _, cr := range rep.Fleet {
		total += cr.Streams
		if cr.Frames == 0 || len(cr.Variants) == 0 {
			t.Fatalf("class %s missing frames or variants: %+v", cr.Class, cr)
		}
	}
	if total != streams {
		t.Fatalf("fleet classes cover %d streams, want %d", total, streams)
	}
	if rep.SLO == nil || len(rep.SLO.Classes) != 2 {
		t.Fatalf("slo classes missing: %+v", rep.SLO)
	}
	foundFleetGauge := false
	for name := range rep.Metrics {
		if strings.HasPrefix(name, "anole_fleet_") {
			foundFleetGauge = true
			break
		}
	}
	if !foundFleetGauge {
		t.Fatal("no anole_fleet_* series in metrics")
	}
	if _, ok := rep.Metrics["anole_plan_infeasible_streams"]; !ok {
		t.Fatal("no anole_plan_infeasible_streams gauge in metrics")
	}
}
