package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// op is one kind of call the benchmark makes into a layer. Spans are
// recorded only here, in the benchmark's own files, around each call;
// nothing inside the allocator is instrumented.
type op uint8

const (
	opReq           op = iota // one kernel run or one session (the root span)
	opMalloc                  // core: Heap.Malloc (unbatched)
	opFree                    // core: Heap.Free (unbatched)
	opMagMalloc               // core: Magazine.Malloc
	opMagFree                 // core: Magazine.Free
	opRemoteFree              // core: ShardedHeap.RemoteFree
	opMallocFat               // core: ShardedHeap.MallocFat
	opFreeFat                 // core: ShardedHeap.FreeFat
	opRemoteFreeFat           // core: ShardedHeap.RemoteFreeFat
	opLoad                    // vmem: Load8/Load32/Load64
	opStore                   // vmem: Store8/Store32/Store64
	opBulk                    // vmem: ReadBytes/WriteBytes/Memset/MemMove/FindByte
	numOps
)

var opNames = [numOps]string{
	"bench.req", "core.malloc", "core.free", "core.mag_malloc", "core.mag_free",
	"core.remote_free", "core.malloc_fat", "core.free_fat", "core.remote_free_fat",
	"vmem.load", "vmem.store", "vmem.bulk",
}

func (o op) isVmem() bool { return o >= opLoad }

// opStat aggregates one op: every call is counted, timed calls are
// summed and sampled for quantiles.
type opStat struct {
	calls   uint64
	timed   uint64
	timedNs int64
	ns      sampler
}

// span is one recorded call: name, start, end and parent. All spans of
// one request share Req; the root span of a request has ID 0 and every
// other span's Parent is the root, because the benchmark calls each
// layer directly from the request.
type span struct {
	Req    uint64 `json:"req"`
	ID     uint32 `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// keptSpansCap bounds the spans a tracer keeps for the trace file.
const keptSpansCap = 1 << 16

// tracer records one goroutine's spans. It is not shared: each serve
// worker owns one and the results are merged after the run.
type tracer struct {
	epoch time.Time
	// clockNs is the cost of one clock read, taken off every timed layer
	// call: a span's measured length includes one read's worth of the
	// clock itself, which is comparable to a vmem access.
	clockNs int64

	// vmemReqEvery times the vmem calls of one request in this many;
	// vmemCallEvery times one vmem call in this many within such a
	// request. Every vmem call is counted either way.
	vmemReqEvery  uint64
	vmemCallEvery uint64
	// keepEvery keeps the spans of one request in this many, up to
	// keptSpansCap spans.
	keepEvery uint64

	ops [numOps]opStat

	// The request in flight.
	req       uint64
	reqStart  int64
	timeVmem  bool
	keep      bool
	nextID    uint32
	coreNs    int64
	vmemCalls uint64
	vmemTimed uint64
	vmemNs    int64
	timedOps  int64 // layer calls timed so far in this request

	spans []span

	// Per request whose vmem calls were timed: its duration, the self
	// time of core and vmem in it, and the time its own clock reads took
	// (two per timed call and two for the request). Requests have no
	// nested layer calls, so a layer span's self time is its duration.
	reqNs, coreSelf, vmemSelf, clockSelf []float64
	// Summed over every request: duration and core self time.
	sumReqNs, sumCoreNs int64
}

func newTracer(epoch time.Time, vmemReqEvery, vmemCallEvery, keepEvery uint64) *tracer {
	return &tracer{epoch: epoch, clockNs: clockCost(epoch), vmemReqEvery: vmemReqEvery, vmemCallEvery: vmemCallEvery, keepEvery: keepEvery}
}

// clockCost measures the span overhead of the clock: the median gap
// between back-to-back reads, over a few thousand pairs.
func clockCost(epoch time.Time) int64 {
	gaps := make([]float64, 4096)
	for i := range gaps {
		a := time.Since(epoch)
		b := time.Since(epoch)
		gaps[i] = float64(b - a)
	}
	return int64(median(gaps))
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// beginReq opens the root span of request id.
func (t *tracer) beginReq(id uint64) {
	t.req = id
	t.timeVmem = id%t.vmemReqEvery == 0
	t.keep = id%t.keepEvery == 0 && len(t.spans) < keptSpansCap
	t.nextID = 1
	t.coreNs, t.vmemCalls, t.vmemTimed, t.vmemNs, t.timedOps = 0, 0, 0, 0, 0
	t.reqStart = t.now()
}

// endReq closes the root span and returns the request's duration.
func (t *tracer) endReq() int64 {
	end := t.now()
	d := end - t.reqStart
	st := &t.ops[opReq]
	st.calls++
	st.timed++
	st.timedNs += d
	st.ns.add(float64(d))
	t.sumReqNs += d
	t.sumCoreNs += t.coreNs
	if t.timeVmem && t.vmemTimed > 0 {
		vmem := float64(t.vmemNs) * float64(t.vmemCalls) / float64(t.vmemTimed)
		t.reqNs = append(t.reqNs, float64(d))
		t.coreSelf = append(t.coreSelf, float64(t.coreNs))
		t.vmemSelf = append(t.vmemSelf, vmem)
		t.clockSelf = append(t.clockSelf, float64((2*t.timedOps+2)*t.clockNs))
	}
	if t.keep {
		t.spans = append(t.spans, span{Req: t.req, ID: 0, Parent: -1, Name: opNames[opReq], Start: t.reqStart, End: end})
	}
	return d
}

// timeCall reports whether the next call of o is timed; if not, the
// call is only counted. Core calls are always timed.
func (t *tracer) timeCall(o op) bool {
	if !o.isVmem() {
		return true
	}
	t.vmemCalls++
	if !t.timeVmem || t.vmemCalls%t.vmemCallEvery != 0 {
		t.ops[o].calls++
		return false
	}
	return true
}

// done records a timed call of o that started at start.
func (t *tracer) done(o op, start int64) {
	end := t.now()
	d := end - start - t.clockNs
	if d < 0 {
		d = 0
	}
	st := &t.ops[o]
	st.calls++
	st.timed++
	st.timedNs += d
	st.ns.add(float64(d))
	t.timedOps++
	if o.isVmem() {
		t.vmemTimed++
		t.vmemNs += d
	} else {
		t.coreNs += d
	}
	if t.keep && len(t.spans) < keptSpansCap {
		t.spans = append(t.spans, span{Req: t.req, ID: t.nextID, Parent: 0, Name: opNames[o], Start: start, End: end})
		t.nextID++
	}
}

// merge folds o into t after both goroutines have stopped.
func (t *tracer) merge(o *tracer) {
	for i := range t.ops {
		a, b := &t.ops[i], &o.ops[i]
		a.calls += b.calls
		a.timed += b.timed
		a.timedNs += b.timedNs
		a.ns.merge(&b.ns)
	}
	t.spans = append(t.spans, o.spans...)
	t.reqNs = append(t.reqNs, o.reqNs...)
	t.coreSelf = append(t.coreSelf, o.coreSelf...)
	t.vmemSelf = append(t.vmemSelf, o.vmemSelf...)
	t.clockSelf = append(t.clockSelf, o.clockSelf...)
	t.sumReqNs += o.sumReqNs
	t.sumCoreNs += o.sumCoreNs
}

// opSummary is one op's line in the result record.
type opSummary struct {
	Calls  uint64  `json:"calls"`
	Timed  uint64  `json:"timed"`
	P50ns  float64 `json:"p50_ns"`
	P99ns  float64 `json:"p99_ns"`
	MeanNs float64 `json:"mean_ns"`
}

func (t *tracer) opSummaries() map[string]opSummary {
	out := make(map[string]opSummary)
	for o := op(0); o < numOps; o++ {
		st := &t.ops[o]
		if st.calls == 0 {
			continue
		}
		vals := append([]float64(nil), st.ns.vals...)
		sort.Float64s(vals)
		mean := 0.0
		if st.timed > 0 {
			mean = float64(st.timedNs) / float64(st.timed)
		}
		out[opNames[o]] = opSummary{Calls: st.calls, Timed: st.timed, P50ns: quantile(vals, 0.5), P99ns: bandMean(vals, 0.99), MeanNs: mean}
	}
	return out
}

// pooled returns the merged samples and timed totals of several ops,
// e.g. every malloc entry point a workload uses.
func (t *tracer) pooled(ops ...op) (vals []float64, timed uint64, timedNs int64) {
	for _, o := range ops {
		st := &t.ops[o]
		vals = append(vals, st.ns.vals...)
		timed += st.timed
		timedNs += st.timedNs
	}
	return
}

// vmemSelfNs estimates the total time spent in vmem calls: the timed
// calls' mean times every call made.
func (t *tracer) vmemSelfNs() float64 {
	var calls, timed uint64
	var ns int64
	for o := opLoad; o < numOps; o++ {
		calls += t.ops[o].calls
		timed += t.ops[o].timed
		ns += t.ops[o].timedNs
	}
	if timed == 0 {
		return 0
	}
	return float64(ns) * float64(calls) / float64(timed)
}

// writeSpans writes the kept spans as JSON lines to path.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("trace file: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace file: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	return nil
}
