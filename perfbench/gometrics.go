package main

import (
	"math"
	"runtime"
	"runtime/metrics"
)

// The Go runtime is a layer of its own here: garbage collection and
// scheduling delays land inside the benchmark's request times. These
// are read around the traced phase.

const (
	mGCCycles  = "/gc/cycles/total:gc-cycles"
	mSchedLat  = "/sched/latencies:seconds"
	mHeapBytes = "/memory/classes/heap/objects:bytes"
)

type goSnap struct {
	gcCycles uint64
	pauseNs  uint64 // MemStats.PauseTotalNs: exact, where the pause histograms are bucketed
	sched    *metrics.Float64Histogram
}

func readGo() goSnap {
	s := []metrics.Sample{{Name: mGCCycles}, {Name: mSchedLat}}
	metrics.Read(s)
	var snap goSnap
	if s[0].Value.Kind() == metrics.KindUint64 {
		snap.gcCycles = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64Histogram {
		snap.sched = s[1].Value.Float64Histogram()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	snap.pauseNs = ms.PauseTotalNs
	return snap
}

// heapBytes is the bytes of live and not-yet-swept Go heap objects.
func heapBytes() uint64 {
	s := []metrics.Sample{{Name: mHeapBytes}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// goAcc accumulates the Go runtime's share of one or more intervals.
type goAcc struct {
	gcCycles uint64
	pauseNs  uint64
	sched    []uint64
	buckets  []float64
	heapPeak uint64
}

// add folds in the interval from a to b.
func (g *goAcc) add(a, b goSnap) {
	g.gcCycles += b.gcCycles - a.gcCycles
	g.pauseNs += b.pauseNs - a.pauseNs
	if a.sched == nil || b.sched == nil || len(a.sched.Counts) != len(b.sched.Counts) {
		return
	}
	if g.sched == nil {
		g.sched = make([]uint64, len(b.sched.Counts))
		g.buckets = b.sched.Buckets
	}
	for i := range g.sched {
		g.sched[i] += b.sched.Counts[i] - a.sched.Counts[i]
	}
}

func (g *goAcc) sampleHeap() {
	if b := heapBytes(); b > g.heapPeak {
		g.heapPeak = b
	}
}

// schedP99 returns the p99 scheduling latency in seconds and the number
// of latencies it rests on.
func (g *goAcc) schedP99() (float64, uint64) {
	var n uint64
	for _, c := range g.sched {
		n += c
	}
	if n == 0 {
		return 0, 0
	}
	return histQuantile(g.sched, g.buckets, 0.99), n
}

// histQuantile interpolates the q-quantile of a bucketed distribution
// linearly inside the bucket the rank falls in; infinite bucket edges
// are clamped to the finite neighbour.
func histQuantile(counts []uint64, buckets []float64, q float64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	cum := 0.0
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, hi := buckets[i], buckets[i+1]
			if math.IsInf(lo, -1) {
				lo = hi
			}
			if math.IsInf(hi, 1) {
				hi = lo
			}
			return lo + (hi-lo)*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	return buckets[len(buckets)-1]
}
