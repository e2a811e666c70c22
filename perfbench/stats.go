package main

import (
	"math"
	"sort"
)

// The benchmark computes every percentile and rate from its own raw
// samples. It never reads obs.Histogram or serve.Result: their log-scale
// buckets quantize a quantile by up to 6.25%, which is wider than the
// regression bounds this benchmark enforces.

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks. xs must be sorted ascending.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if hi >= len(xs) {
		hi = len(xs) - 1
	}
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// bandMean estimates the q-quantile of sorted xs as the mean of the
// values ranked within half a band of q, the band being half the tail
// beyond q (p99: ranks 98.75–99.25%). Layer call times are whole
// nanoseconds, so a plain quantile of them lands on the same integer
// run after run; the band mean keeps the digits the data has.
func bandMean(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	half := (1 - q) / 4
	lo := int(math.Floor((q - half) * float64(n)))
	hi := int(math.Ceil((q + half) * float64(n)))
	if lo < 0 {
		lo = 0
	}
	if hi > n {
		hi = n
	}
	if hi <= lo {
		return quantile(xs, q)
	}
	sum := 0.0
	for _, x := range xs[lo:hi] {
		sum += x
	}
	return sum / float64(hi-lo)
}

// summary is a distribution reduced to the quantiles the benchmark
// reports.
type summary struct {
	P50, P90, P99 float64
}

// summarize sorts xs in place and reduces it.
func summarize(xs []float64) summary {
	sort.Float64s(xs)
	return summary{P50: quantile(xs, 0.5), P90: quantile(xs, 0.9), P99: quantile(xs, 0.99)}
}

// median of xs; xs is sorted in place.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	return quantile(xs, 0.5)
}

// sampler keeps a bounded, evenly spaced subset of a stream of values:
// it records every stride-th value and, when full, drops every other
// kept value and doubles the stride. Quantiles of the kept values are
// quantiles of a systematic sample of the whole stream, so the memory
// bound does not bias them towards the start or the end of a run.
type sampler struct {
	vals   []float64
	stride uint64
	seen   uint64
}

const samplerCap = 1 << 18

func (s *sampler) add(v float64) {
	if s.stride == 0 {
		s.stride = 1
	}
	s.seen++
	if s.seen%s.stride != 0 {
		return
	}
	if len(s.vals) == samplerCap {
		for i := 0; i < samplerCap/2; i++ {
			s.vals[i] = s.vals[2*i+1]
		}
		s.vals = s.vals[:samplerCap/2]
		s.stride *= 2
		if s.seen%s.stride != 0 {
			return
		}
	}
	s.vals = append(s.vals, v)
}

// merge folds o's kept values into s. Both streams were sampled
// systematically; mixing strides skews weights only when one side
// overflowed, which the per-worker caps make rare.
func (s *sampler) merge(o *sampler) {
	for _, v := range o.vals {
		s.vals = append(s.vals, v)
	}
	s.seen += o.seen
	if o.stride > s.stride {
		s.stride = o.stride
	}
}

// splitmix64 is the benchmark's own generator for seeds and workload
// plans. It is deliberately not the allocator's rng package: a change to
// the allocator's random streams must not change what the benchmark asks
// the allocator to do.
type splitmix64 struct{ state uint64 }

func (r *splitmix64) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n) for n > 0.
func (r *splitmix64) intn(n int) int {
	return int((r.next() >> 11) % uint64(n))
}

// deriveSeed maps (seed, i) to an independent non-zero seed.
func deriveSeed(seed uint64, i int) uint64 {
	r := splitmix64{state: seed ^ (uint64(i)+1)*0xd1342543de82ef95}
	for {
		if v := r.next(); v != 0 {
			return v
		}
	}
}
