package main

import (
	"sort"

	"diehard/internal/heap"
	"diehard/internal/vmem"
)

// outcome is everything one workload run measured.
type outcome struct {
	// setupTimes are the seconds each heap construction took.
	setupTimes []float64
	// reqNs are the request durations in ns over the measured window
	// (kernel runs on apps-*, sessions on serve-*); lat summarizes them.
	reqNs   []float64
	lat     summary
	reqPerS float64
	memMB   float64

	attempted, failed int64
	measured          int64

	// final is the heap ledger: serve-* after the teardown barrier,
	// apps-* summed over every run's heap.
	final                          heap.Stats
	invariantErr                   error
	balance                        []string
	injectedDoubles, injectedWilds int64

	traced *tracedPhase
}

// tracedPhase is the part of a traced run that had spans on.
type tracedPhase struct {
	tr *tracer
	// core and vmem are the layers' own counters over the phase.
	core heap.Stats
	vmem vmem.Stats
	// goRT is the Go runtime over the phase (apps-*: over the traced
	// kernel executions only, not the collections forced between runs).
	goRT      goAcc
	g0        goSnap
	bulkBytes uint64
	// untracedReqPerS and tracedReqPerS are the request rates with
	// spans off and on, for the tracing overhead.
	untracedReqPerS, tracedReqPerS float64
	// untracedP50 is the untraced median request time in ns, by the
	// wall clock like the traced requests.
	untracedP50 float64
}

// begin and end bracket a serve-* traced phase; the counters are the
// difference between the two readings.
func (tp *tracedPhase) begin(st *heap.Stats, vs vmem.Stats) {
	tp.core = *st
	tp.vmem = vs
	tp.g0 = readGo()
	tp.goRT.sampleHeap()
}

func (tp *tracedPhase) end(st *heap.Stats, vs vmem.Stats) {
	tp.goRT.add(tp.g0, readGo())
	tp.goRT.sampleHeap()
	c0 := tp.core
	tp.core = *st
	subStats(&tp.core, c0)
	tp.vmem = vmem.Stats{
		Loads:      vs.Loads - tp.vmem.Loads,
		Stores:     vs.Stores - tp.vmem.Stores,
		PagesDirty: vs.PagesDirty - tp.vmem.PagesDirty,
	}
}

// addStats and subStats add or subtract the counters the benchmark
// reports.
func addStats(a *heap.Stats, b heap.Stats) {
	a.Mallocs += b.Mallocs
	a.Frees += b.Frees
	a.FailedMallocs += b.FailedMallocs
	a.IgnoredFrees += b.IgnoredFrees
	a.StaleFrees += b.StaleFrees
	a.Probes += b.Probes
	a.CASRetries += b.CASRetries
	a.RemoteFrees += b.RemoteFrees
	a.RemoteDrains += b.RemoteDrains
	a.LiveObjects += b.LiveObjects
}

func subStats(a *heap.Stats, b heap.Stats) {
	a.Mallocs -= b.Mallocs
	a.Frees -= b.Frees
	a.FailedMallocs -= b.FailedMallocs
	a.IgnoredFrees -= b.IgnoredFrees
	a.StaleFrees -= b.StaleFrees
	a.Probes -= b.Probes
	a.CASRetries -= b.CASRetries
	a.RemoteFrees -= b.RemoteFrees
	a.RemoteDrains -= b.RemoteDrains
	a.LiveObjects -= b.LiveObjects
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metric is one reported number with its unit. N, when set, is the
// number of samples the value rests on.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int64   `json:"n,omitempty"`
}

// endToEnd returns the contract's end-to-end metrics: the same names on
// every workload, where a request is one kernel run (apps-*) or one
// session (serve-*).
func endToEnd(o *outcome) map[string]metric {
	nSetup := int64(len(o.setupTimes))
	return map[string]metric{
		"setup_s":    {Value: median(append([]float64(nil), o.setupTimes...)), Unit: "s", N: nSetup},
		"mem_mb":     {Value: o.memMB, Unit: "MB"},
		"req_per_s":  {Value: o.reqPerS, Unit: "1/s", N: o.measured},
		"req_p50_us": {Value: o.lat.P50 / 1e3, Unit: "us", N: o.measured},
		"req_p90_us": {Value: o.lat.P90 / 1e3, Unit: "us", N: o.measured},
	}
}

// ladder reconciles the median traced request with the median
// per-request self times of core and vmem and the tracing's own clock
// reads, over the traced requests whose vmem calls were timed (all of
// them on serve-*, a sample on apps-*). The residual is the share none
// of these covers: the benchmark's own work between calls, and on
// apps-* the kernel's computation.
//
// The reconciliation is made on traced requests because timing each
// call serializes what the processor would otherwise overlap (a run of
// independent stores to randomly placed objects is one cache miss deep
// untraced, sixteen deep traced), so traced self times do not add up
// to an untraced request. The untraced median is printed next to it.
type ladder struct {
	UntracedReqP50us float64 `json:"untraced_req_p50_us"`
	ReqP50us         float64 `json:"req_p50_us"`
	CoreSelfUs       float64 `json:"core_self_p50_us"`
	VmemSelfUs       float64 `json:"vmem_self_p50_us"`
	ClockUs          float64 `json:"trace_clock_p50_us"`
	ResidualFrac     float64 `json:"residual_frac"`
	N                int     `json:"n"`
}

func (tr *tracer) ladder(untracedP50 float64) ladder {
	p50 := median(append([]float64(nil), tr.reqNs...))
	c := median(append([]float64(nil), tr.coreSelf...))
	v := median(append([]float64(nil), tr.vmemSelf...))
	k := median(append([]float64(nil), tr.clockSelf...))
	return ladder{
		UntracedReqP50us: untracedP50 / 1e3,
		ReqP50us:         p50 / 1e3,
		CoreSelfUs:       c / 1e3,
		VmemSelfUs:       v / 1e3,
		ClockUs:          k / 1e3,
		ResidualFrac:     ratio(p50-c-v-k, p50),
		N:                len(tr.reqNs),
	}
}

// perLayer returns the contract's per-layer metrics from a traced
// phase, again under the same names on every workload: core.malloc_ns
// pools whatever malloc entry points the workload calls, core.free_ns
// every free entry point (local and remote).
func perLayer(o *outcome) map[string]metric {
	tp := o.traced
	tr := tp.tr
	mallocs, mallocTimed, mallocNs := tr.pooled(opMalloc, opMagMalloc, opMallocFat)
	_, freeTimed, freeNs := tr.pooled(opFree, opMagFree, opRemoteFree, opFreeFat, opRemoteFreeFat)
	_, accessTimed, accessNs := tr.pooled(opLoad, opStore, opBulk)
	sort.Float64s(mallocs)
	reqs := append([]float64(nil), tr.ops[opReq].ns.vals...)
	sort.Float64s(reqs)
	schedP99, schedN := tp.goRT.schedP99()
	c := tp.core
	lad := tr.ladder(tp.untracedP50)
	reqNs := float64(tr.sumReqNs)
	return map[string]metric{
		"vmem.pages_dirty":      {Value: float64(tp.vmem.PagesDirty), Unit: "count"},
		"vmem.pages_per_malloc": {Value: ratio(float64(tp.vmem.PagesDirty), float64(c.Mallocs)), Unit: "ratio"},
		"vmem.self_frac":        {Value: ratio(tr.vmemSelfNs(), reqNs), Unit: "ratio"},
		"vmem.loads":            {Value: float64(tp.vmem.Loads), Unit: "count"},
		"vmem.stores":           {Value: float64(tp.vmem.Stores), Unit: "count"},
		"vmem.bulk_bytes":       {Value: float64(tp.bulkBytes), Unit: "B"},
		"vmem.access_ns":        {Value: ratio(float64(accessNs), float64(accessTimed)), Unit: "ns", N: int64(accessTimed)},

		"core.malloc_ns":              {Value: ratio(float64(mallocNs), float64(mallocTimed)), Unit: "ns", N: int64(mallocTimed)},
		"core.malloc_p99_ns":          {Value: bandMean(mallocs, 0.99), Unit: "ns", N: int64(len(mallocs))},
		"core.free_ns":                {Value: ratio(float64(freeNs), float64(freeTimed)), Unit: "ns", N: int64(freeTimed)},
		"core.self_frac":              {Value: ratio(float64(tr.sumCoreNs), reqNs), Unit: "ratio"},
		"core.probes_per_malloc":      {Value: ratio(float64(c.Probes), float64(c.Mallocs)), Unit: "ratio"},
		"core.cas_retries_per_malloc": {Value: ratio(float64(c.CASRetries), float64(c.Mallocs)), Unit: "ratio"},
		"core.drain_batch":            {Value: ratio(float64(c.RemoteFrees), float64(c.RemoteDrains)), Unit: "ratio"},
		"core.mallocs":                {Value: float64(c.Mallocs), Unit: "count"},
		"core.failed_mallocs":         {Value: float64(c.FailedMallocs), Unit: "count"},
		"core.remote_frees":           {Value: float64(c.RemoteFrees), Unit: "count"},
		"core.ignored_frees":          {Value: float64(o.final.IgnoredFrees), Unit: "count"},
		"core.stale_frees":            {Value: float64(o.final.StaleFrees), Unit: "count"},

		"go.gc_cycles":            {Value: float64(tp.goRT.gcCycles), Unit: "count"},
		"go.gc_pause_frac":        {Value: ratio(float64(tp.goRT.pauseNs), reqNs), Unit: "ratio"},
		"go.sched_latency_p99_us": {Value: schedP99 * 1e6, Unit: "us", N: int64(schedN)},
		"go.heap_peak_mb":         {Value: float64(tp.goRT.heapPeak) / (1 << 20), Unit: "MB"},

		"bench.req_p999_us":         {Value: bandMean(reqs, 0.999) / 1e3, Unit: "us", N: int64(len(reqs))},
		"bench.residual_frac":       {Value: lad.ResidualFrac, Unit: "ratio", N: int64(lad.N)},
		"bench.trace_overhead_frac": {Value: ratio(tp.untracedReqPerS, tp.tracedReqPerS) - 1, Unit: "ratio"},
	}
}
