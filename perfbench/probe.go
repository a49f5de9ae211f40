package main

import (
	"runtime"
	"sort"
	"syscall"
	"time"
)

// The speed probe. How fast one core runs swings on a shared host, and
// not only by the time other tenants take from it, which CPU time
// already leaves out: a busy sibling hyperthread or a lower clock made
// the same episode take up to twice the CPU time from one minute to the
// next on a 2-vCPU VM. So each phase reads the core's speed with a fixed
// piece of work of its own, on the same P, when it starts, between
// episodes (at most every probeEvery) and when it ends. An episode's
// speed is the mean of the readings right before and right after it,
// and frames_per_s and tick_ms_p50 are in reference-core time: CPU time
// over that speed. A reference core runs the probe in exactly refProbe.
//
// The probe mixes the runtime's kinds of work, so that it speeds up and
// slows down as the runtime does: dense float64 multiply-adds (as in
// GEMV), map updates and small heap allocations, and reads scattered over
// a buffer larger than the core's L2 cache. On that VM the log of an
// episode's CPU time followed the log of the probe's, each smoothed over
// 11 readings, with slope 1.00 and correlation 0.95 over 150 s of
// churn_unbatched episodes, and slope 0.97 and correlation 0.80 over
// 150 fleet_batched episodes. No code of the program under test runs in
// it.
const (
	refProbe  = time.Millisecond
	probeReps = 3  // probes per reading; the reading is their median
	probeDim  = 96 // side of the probe's matrix
	// probeReads scattered reads cover probeBuf, 32 MiB mapped outside
	// the Go heap so that it moves neither GC nor peak_heap_mb.
	probeReads    = 20000
	probeBufWords = 4 << 20
	// probeEvery is the least wall time between two readings in a
	// phase.
	probeEvery = 25 * time.Millisecond
)

var (
	probeMat, probeVec = probeInputs()
	probeBuf           []uint64
	probeSink          float64
)

func probeInputs() ([]float64, []float64) {
	m := make([]float64, probeDim*probeDim)
	for i := range m {
		m[i] = float64(i%17) / 17
	}
	v := make([]float64, probeDim)
	for i := range v {
		v[i] = float64(i%5) / 5
	}
	return m, v
}

// initProbe maps and fills the probe's buffer.
func initProbe() error {
	b, err := syscall.Mmap(-1, 0, probeBufWords*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return err
	}
	probeBuf = unsafeWords(b)
	for i := range probeBuf {
		probeBuf[i] = uint64(i)
	}
	return nil
}

type probeNode struct {
	key  uint64
	next *probeNode
}

// probeWork is one probe. Its result goes to probeSink, so that none of
// it can be optimised away.
func probeWork() {
	var s float64
	for r := 0; r < 40; r++ {
		for i := 0; i < probeDim; i++ {
			row := probeMat[i*probeDim : (i+1)*probeDim]
			var dot float64
			for j, w := range row {
				dot += w * probeVec[j]
			}
			s += dot
		}
	}
	m := make(map[uint64]int, 1024)
	var head *probeNode
	for i := uint64(0); i < 4096; i++ {
		k := i * 0x9e3779b97f4a7c15
		m[k>>40]++
		head = &probeNode{key: k, next: head}
	}
	for n := head; n != nil; n = n.next {
		s += float64(m[n.key>>40])
	}
	x, sum := uint64(12345), uint64(0)
	for i := 0; i < probeReads; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		sum += probeBuf[(x>>20)&(probeBufWords-1)]
	}
	probeSink += s + float64(sum)
}

// speedNow reads the core's speed: the median CPU time of probeReps
// probes over refProbe (above 1 on a slower core than the reference).
func speedNow() float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var ns [probeReps]float64
	for i := range ns {
		c0 := threadCPUNow()
		probeWork()
		ns[i] = float64(threadCPUNow() - c0)
	}
	sort.Float64s(ns[:])
	return ns[probeReps/2] / float64(refProbe)
}
