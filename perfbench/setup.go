package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"anole/internal/core"
	"anole/internal/device"
	"anole/internal/repo"
	"anole/internal/synth"
	"anole/internal/xrand"
)

const (
	// profileSeed fixes the world and the profiled bundle: the program
	// under test. The workload seed varies only the frames and the fleet.
	profileSeed = 20240777
	// corpusScale shrinks the offline-profiling corpus; the bank keeps
	// the paper's 19 models (core.DefaultProfileConfig).
	corpusScale = 0.3
	// setupReps is how many times a run sets up; setup_s is the median.
	setupReps = 3
)

// prepared is everything a run needs before its first episode.
type prepared struct {
	seed     uint64
	bundle   *core.Bundle
	digest   string             // SHA-256 of the serialized bundle
	inputs   [][][]*synth.Frame // episodes × streams × (warmTicks+ticks) frames
	fleet    device.Fleet       // per-stream devices (fleet_batched)
	deadline time.Duration      // surge deadline (surge_pressure)

	// Per set-up repetition: the whole set-up, and its corpus and
	// profiling parts, in seconds of process CPU time; and the core's
	// speed (probe.go) read before the first repetition and after each.
	setupS, corpusS, profileS []float64
	speeds                    []float64
}

// setUp generates the workload's frames from seed, then sets up
// setupReps times: world, corpus and offline profiling (the cloud-side
// cost, with one training worker per P), then the measured runtime's
// construction and cache warm-up. Every repetition must profile the
// same bundle bit for bit.
func setUp(wl *workload, seed uint64) (*prepared, error) {
	p := &prepared{seed: seed}
	world, err := synth.NewWorld(synth.DefaultConfig(profileSeed))
	if err != nil {
		return nil, err
	}
	p.inputs = genInputs(world, seed, wl.episodes, wl.streams, wl.warmTicks+wl.ticks)
	if wl.fleetSpec != "" {
		if p.fleet, err = device.BuildFleet(wl.fleetSpec, wl.streams, seed); err != nil {
			return nil, err
		}
	}
	p.speeds = append(p.speeds, speedNow())
	for r := 0; r < setupReps; r++ {
		t0 := cpuNow()
		w, err := synth.NewWorld(synth.DefaultConfig(profileSeed))
		if err != nil {
			return nil, err
		}
		corpus := w.GenerateCorpus(synth.DefaultProfiles(corpusScale))
		t1 := cpuNow()
		cfg := core.DefaultProfileConfig(profileSeed)
		cfg.Encoder.Workers = runtime.GOMAXPROCS(0)
		cfg.Repertoire.Workers = runtime.GOMAXPROCS(0)
		b, err := core.Profile(corpus, cfg)
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		t2 := cpuNow()
		digest, err := bundleDigest(b)
		if err != nil {
			return nil, err
		}
		if r == 0 {
			p.bundle, p.digest = b, digest
		} else if digest != p.digest {
			return nil, fmt.Errorf("set-up %d profiled bundle %s, set-up 0 profiled %s: profiling is not deterministic", r, digest[:16], p.digest[:16])
		}
		t3 := cpuNow()
		if wl.deadline != nil {
			if p.deadline, err = wl.deadline(p); err != nil {
				return nil, err
			}
		}
		inst, err := wl.build(p, 0, buildOpts{telemetry: true})
		if err != nil {
			return nil, err
		}
		inst.mrt.Close()
		t4 := cpuNow()
		// The digest is a check, not set-up work: leave it out.
		p.setupS = append(p.setupS, (t2 - t0 + t4 - t3).Seconds())
		p.corpusS = append(p.corpusS, (t1 - t0).Seconds())
		p.profileS = append(p.profileS, (t2 - t1).Seconds())
		p.speeds = append(p.speeds, speedNow())
	}
	return p, nil
}

// setupSeconds is the median of a set-up time xs in reference-core
// seconds: its CPU time over the median of every speed the run read, in
// set-up and in the timed phases. Not the readings on either side of a
// repetition alone: a repetition is 3-4 s of work the benchmark cannot
// interrupt, those readings missed how the speed moved within it, and
// rescaling by them spread setup_s wider than it found it. The run's
// median is a noisier estimate for one run, but it follows the drift
// from minute to minute that moves a set of runs' median. In two sets of
// 10 runs per workload on a 2-vCPU VM, the three workloads' unscaled
// medians were 3.38-4.34 s and 3.22-3.39 s, and rescaled 3.04-3.19 s and
// 3.00-3.34 s.
func (p *prepared) setupSeconds(xs []float64, phases ...*phaseOut) float64 {
	speeds := append([]float64(nil), p.speeds...)
	for _, ph := range phases {
		speeds = append(speeds, ph.speeds...)
	}
	return median(xs) / median(speeds)
}

// genInputs deals one seeded clip trace per stream and episode, as
// anole-run builds them: BDD100k-profile clips of the requested length,
// distinct clip IDs throughout.
func genInputs(world *synth.World, seed uint64, episodes, streams, frames int) [][][]*synth.Frame {
	prof := synth.DefaultProfiles(1)[1]
	prof.FramesPerClip = frames
	rng := xrand.NewLabeled(seed, "perfbench-trace")
	inputs := make([][][]*synth.Frame, episodes)
	for e := range inputs {
		inputs[e] = make([][]*synth.Frame, streams)
		for s := range inputs[e] {
			id := e*streams + s
			inputs[e][s] = world.GenerateClip(prof, 9000+id, rng.Split(uint64(id))).Frames
		}
	}
	return inputs
}

func bundleDigest(b *core.Bundle) (string, error) {
	h := sha256.New()
	if err := repo.WriteBundle(h, b); err != nil {
		return "", fmt.Errorf("digest bundle: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
