package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"diehard/internal/core"
	"diehard/internal/heap"
	"diehard/internal/vmem"
)

// The serve-* workloads: closed-loop workers, each serving sessions
// back to back over one 2-shard ShardedHeap with Concurrent and
// RemoteRing set. A session allocates sessionObjects objects from a
// skewed size mix, stores one token word in each, reads every token
// back, frees three quarters of the objects itself and hands the rest
// to the neighbour worker, which frees them through the remote-free
// ring.
const (
	serveShards    = 2
	serveHeapSize  = serveShards * 32 << 20
	sessionObjects = 16
	crossObjects   = sessionObjects / 4
	crossBatch     = 64
	// inboxDepth batches may wait for the neighbour; a full inbox makes
	// the sender free the batch itself, so handoffs never block.
	inboxDepth = 16
	// injectEvery: on serve-gentag, one session in this many (drawn from
	// the plan) frees one object early and frees an interior address.
	injectEvery = 100
	// serveWarmup runs before the measured window: first-touch page
	// instantiation and magazine growth happen there, not in the window.
	serveWarmup = 750 * time.Millisecond
	// setupRepeats heaps are built per process; setup_s is the median
	// over every build of a run.
	setupRepeats = 10
)

const (
	phaseWarmup int32 = iota
	phaseMeasure
	phaseTraced
	phaseStop
)

type serveConfig struct {
	gentag  bool
	seed    uint64
	seconds float64
	trace   bool
	workers int
}

type serveWorker struct {
	id     int
	gentag bool
	sh     *core.ShardedHeap
	mag    *core.Magazine
	mem    *vmem.Space
	plan   splitmix64

	inbox    chan []heap.Ptr
	out      chan []heap.Ptr
	cross    []heap.Ptr
	inboxFat chan []heap.FatPtr
	outFat   chan []heap.FatPtr
	crossFat []heap.FatPtr
	ptrs     [sessionObjects]heap.Ptr
	fat      [sessionObjects]heap.FatPtr

	tr *tracer // records the traced phase's sessions

	// Per measured window (phaseMeasure): session latencies in ns.
	lat      []float64
	sessions int64
	failed   int64
	// Traced phase session count (latencies live in tr).
	tracedSessions int64
	// Whole run: injected errors and free verdicts that contradicted
	// the expected outcome.
	doubles, wilds int64
	badVerdicts    int64
	err            error
}

// skewedSize draws the session size mix: mostly small objects, a
// medium band and a thin large tail, four size classes apart.
func (w *serveWorker) skewedSize() int {
	switch p := w.plan.intn(100); {
	case p < 55:
		return 16 + w.plan.intn(49) // 16–64 B
	case p < 85:
		return 128 + w.plan.intn(385) // 128–512 B
	case p < 97:
		return 1024 + w.plan.intn(1025) // 1–2 KB
	default:
		return 4096 + w.plan.intn(4097) // 4–8 KB
	}
}

// The layer calls, each a span when t is non-nil.

func (w *serveWorker) store(t *tracer, p heap.Ptr, v uint64) error {
	if t == nil || !t.timeCall(opStore) {
		return w.mem.Store64(p, v)
	}
	start := t.now()
	err := w.mem.Store64(p, v)
	t.done(opStore, start)
	return err
}

func (w *serveWorker) load(t *tracer, p heap.Ptr) (uint64, error) {
	if t == nil || !t.timeCall(opLoad) {
		return w.mem.Load64(p)
	}
	start := t.now()
	v, err := w.mem.Load64(p)
	t.done(opLoad, start)
	return v, err
}

func (w *serveWorker) magMalloc(t *tracer, size int) (heap.Ptr, error) {
	if t == nil {
		return w.mag.Malloc(size)
	}
	start := t.now()
	p, err := w.mag.Malloc(size)
	t.done(opMagMalloc, start)
	return p, err
}

func (w *serveWorker) magFree(t *tracer, p heap.Ptr) error {
	if t == nil {
		return w.mag.Free(p)
	}
	start := t.now()
	err := w.mag.Free(p)
	t.done(opMagFree, start)
	return err
}

func (w *serveWorker) remoteFree(t *tracer, p heap.Ptr) error {
	if t == nil {
		return w.sh.RemoteFree(p)
	}
	start := t.now()
	err := w.sh.RemoteFree(p)
	t.done(opRemoteFree, start)
	return err
}

func (w *serveWorker) mallocFat(t *tracer, size int) (heap.FatPtr, error) {
	if t == nil {
		return w.sh.MallocFat(size)
	}
	start := t.now()
	fp, err := w.sh.MallocFat(size)
	t.done(opMallocFat, start)
	return fp, err
}

func (w *serveWorker) freeFat(t *tracer, fp heap.FatPtr) (bool, error) {
	if t == nil {
		return w.sh.FreeFat(fp)
	}
	start := t.now()
	ok, err := w.sh.FreeFat(fp)
	t.done(opFreeFat, start)
	return ok, err
}

func (w *serveWorker) remoteFreeFat(t *tracer, fp heap.FatPtr) (bool, error) {
	if t == nil {
		return w.sh.RemoteFreeFat(fp)
	}
	start := t.now()
	ok, err := w.sh.RemoteFreeFat(fp)
	t.done(opRemoteFreeFat, start)
	return ok, err
}

// sendCross hands the outgoing batch to the neighbour, or frees it
// through the remote ring itself when the neighbour's inbox is full.
func (w *serveWorker) sendCross(t *tracer) error {
	b := w.cross
	w.cross = make([]heap.Ptr, 0, crossBatch)
	select {
	case w.out <- b:
		return nil
	default:
		return w.freeBatch(t, b)
	}
}

func (w *serveWorker) freeBatch(t *tracer, b []heap.Ptr) error {
	for _, p := range b {
		if err := w.remoteFree(t, p); err != nil {
			return fmt.Errorf("worker %d remote free: %w", w.id, err)
		}
	}
	return nil
}

func (w *serveWorker) sendCrossFat(t *tracer) error {
	b := w.crossFat
	w.crossFat = make([]heap.FatPtr, 0, crossBatch)
	select {
	case w.outFat <- b:
		return nil
	default:
		return w.freeBatchFat(t, b)
	}
}

// freeBatchFat frees a neighbour's batch. A queued remote free is
// judged at the owner's drain, so only a synchronous rejection of a
// pointer that was never freed before could be checked here; the
// end-of-run balance checks every verdict instead.
func (w *serveWorker) freeBatchFat(t *tracer, b []heap.FatPtr) error {
	for _, fp := range b {
		if _, err := w.remoteFreeFat(t, fp); err != nil {
			return fmt.Errorf("worker %d remote free: %w", w.id, err)
		}
	}
	return nil
}

// sessionThin serves one session through the magazine. It returns
// false when a token read back wrong.
func (w *serveWorker) sessionThin(t *tracer) (bool, error) {
	salt := w.plan.next()
	for i := range w.ptrs {
		p, err := w.magMalloc(t, w.skewedSize())
		if err != nil {
			return false, fmt.Errorf("worker %d malloc: %w", w.id, err)
		}
		if err := w.store(t, p, p^salt); err != nil {
			return false, fmt.Errorf("worker %d store: %w", w.id, err)
		}
		w.ptrs[i] = p
	}
	select {
	case b := <-w.inbox:
		if err := w.freeBatch(t, b); err != nil {
			return false, err
		}
	default:
	}
	ok := true
	for _, p := range w.ptrs {
		v, err := w.load(t, p)
		if err != nil {
			return false, fmt.Errorf("worker %d load: %w", w.id, err)
		}
		ok = ok && v == p^salt
	}
	for i, p := range w.ptrs {
		if i < crossObjects {
			w.cross = append(w.cross, p)
			if len(w.cross) == crossBatch {
				if err := w.sendCross(t); err != nil {
					return false, err
				}
			}
			continue
		}
		if err := w.magFree(t, p); err != nil {
			return false, fmt.Errorf("worker %d free: %w", w.id, err)
		}
	}
	return ok, nil
}

// sessionGen serves one session through the fat-pointer API. About one
// session in injectEvery frees one object early (its regular free later
// is then a double free the generation tag must reject) and frees a
// misaligned interior address (which must be ignored). It returns false
// when a token read back wrong or a local free got the wrong verdict.
func (w *serveWorker) sessionGen(t *tracer) (bool, error) {
	salt := w.plan.next()
	for i := range w.fat {
		fp, err := w.mallocFat(t, w.skewedSize())
		if err != nil {
			return false, fmt.Errorf("worker %d malloc: %w", w.id, err)
		}
		if err := w.store(t, fp.Addr, fp.Addr^salt); err != nil {
			return false, fmt.Errorf("worker %d store: %w", w.id, err)
		}
		w.fat[i] = fp
	}
	select {
	case b := <-w.inboxFat:
		if err := w.freeBatchFat(t, b); err != nil {
			return false, err
		}
	default:
	}
	ok := true
	for _, fp := range w.fat {
		v, err := w.load(t, fp.Addr)
		if err != nil {
			return false, fmt.Errorf("worker %d load: %w", w.id, err)
		}
		ok = ok && v == fp.Addr^salt
	}
	victim := -1
	if w.plan.intn(injectEvery) == 0 {
		victim = w.plan.intn(sessionObjects)
		fp := w.fat[victim]
		first, err := w.freeFat(t, fp)
		if err != nil {
			return false, fmt.Errorf("worker %d injected free: %w", w.id, err)
		}
		wild, err := w.freeFat(t, heap.FatPtr{Addr: fp.Addr + 3, Gen: fp.Gen})
		if err != nil {
			return false, fmt.Errorf("worker %d injected wild free: %w", w.id, err)
		}
		w.doubles++
		w.wilds++
		if !first || wild {
			w.badVerdicts++
			ok = false
		}
	}
	for i, fp := range w.fat {
		if i < crossObjects {
			w.crossFat = append(w.crossFat, fp)
			if len(w.crossFat) == crossBatch {
				if err := w.sendCrossFat(t); err != nil {
					return false, err
				}
			}
			continue
		}
		accepted, err := w.freeFat(t, fp)
		if err != nil {
			return false, fmt.Errorf("worker %d free: %w", w.id, err)
		}
		if accepted == (i == victim) {
			w.badVerdicts++
			ok = false
		}
	}
	return ok, nil
}

// run serves sessions until the phase reaches phaseStop.
func (w *serveWorker) run(phase *atomic.Int32, epoch time.Time) {
	for {
		ph := phase.Load()
		if ph == phaseStop {
			break
		}
		var t *tracer
		if ph == phaseTraced {
			t = w.tr
			// Request ids carry the worker in the high bits, so they stay
			// unique when the workers' spans are merged.
			t.beginReq(uint64(w.id)<<48 | uint64(w.tracedSessions))
		}
		start := time.Since(epoch)
		var ok bool
		var err error
		if w.gentag {
			ok, err = w.sessionGen(t)
		} else {
			ok, err = w.sessionThin(t)
		}
		d := time.Since(epoch) - start
		if err != nil {
			w.err = err
			return
		}
		switch ph {
		case phaseMeasure:
			w.lat = append(w.lat, float64(d))
			w.sessions++
			if !ok {
				w.failed++
			}
		case phaseTraced:
			t.endReq()
			w.tracedSessions++
			if !ok {
				w.failed++
			}
		default:
			if !ok {
				w.err = fmt.Errorf("worker %d: session failed its checks during warm-up", w.id)
				return
			}
		}
	}
	if len(w.cross) > 0 {
		w.err = w.sendCross(nil)
	}
	if len(w.crossFat) > 0 && w.err == nil {
		w.err = w.sendCrossFat(nil)
	}
}

// buildServeHeap builds the heap and the workers' magazines
// setupRepeats times and keeps the last; it returns every build's time.
func buildServeHeap(cfg serveConfig) (*core.ShardedHeap, []*core.Magazine, []float64, error) {
	var (
		sh    *core.ShardedHeap
		mags  []*core.Magazine
		times []float64
	)
	for k := 0; k < setupRepeats; k++ {
		runtime.GC()
		start := time.Now()
		var err error
		sh, err = core.NewSharded(serveShards, core.Options{
			HeapSize:   serveHeapSize,
			Seed:       deriveSeed(cfg.seed, k),
			Concurrent: true,
			RemoteRing: true,
			GenTags:    cfg.gentag,
		})
		if err != nil {
			return nil, nil, nil, fmt.Errorf("heap: %w", err)
		}
		mags = nil
		if !cfg.gentag {
			for i := 0; i < cfg.workers; i++ {
				m, err := sh.NewMagazine()
				if err != nil {
					return nil, nil, nil, fmt.Errorf("magazine: %w", err)
				}
				mags = append(mags, m)
			}
		}
		times = append(times, time.Since(start).Seconds())
	}
	return sh, mags, times, nil
}

// runServe runs one serve-* workload.
func runServe(cfg serveConfig) (*outcome, error) {
	sh, mags, setupTimes, err := buildServeHeap(cfg)
	if err != nil {
		return nil, err
	}
	epoch := time.Now()
	ws := make([]*serveWorker, cfg.workers)
	for i := range ws {
		w := &serveWorker{
			id:     i,
			gentag: cfg.gentag,
			sh:     sh,
			mem:    sh.Mem(),
			plan:   splitmix64{state: deriveSeed(cfg.seed^0x5e55, i)},
			cross:  make([]heap.Ptr, 0, crossBatch),
			tr:     newTracer(epoch, 4, 1, 1024),
			lat:    make([]float64, 0, 1<<20),
		}
		if cfg.gentag {
			w.inboxFat = make(chan []heap.FatPtr, inboxDepth)
			w.crossFat = make([]heap.FatPtr, 0, crossBatch)
		} else {
			w.mag = mags[i]
			w.inbox = make(chan []heap.Ptr, inboxDepth)
		}
		ws[i] = w
	}
	for i, w := range ws {
		next := ws[(i+1)%len(ws)]
		w.out, w.outFat = next.inbox, next.inboxFat
	}

	var phase atomic.Int32
	var wg sync.WaitGroup
	for _, w := range ws {
		wg.Add(1)
		go func(w *serveWorker) {
			defer wg.Done()
			w.run(&phase, epoch)
		}(w)
	}
	// A worker that fails stops on its own; the phase clock below decides
	// which window each session lands in.
	time.Sleep(serveWarmup)
	measure := cfg.seconds
	if cfg.trace {
		measure /= 2
	}
	phase.Store(phaseMeasure)
	t0 := time.Now()
	time.Sleep(time.Duration(measure * float64(time.Second)))
	window := time.Since(t0).Seconds()
	pagesAtEnd := sh.Mem().StatsSnapshot().PagesDirty

	var tp *tracedPhase
	var tracedWindow float64
	if cfg.trace {
		tp = &tracedPhase{}
		tp.begin(sh.Stats(), sh.Mem().StatsSnapshot())
		phase.Store(phaseTraced)
		t1 := time.Now()
		deadline := t1.Add(time.Duration(measure * float64(time.Second)))
		for time.Now().Before(deadline) {
			tp.goRT.sampleHeap()
			time.Sleep(10 * time.Millisecond)
		}
		tracedWindow = time.Since(t1).Seconds()
		tp.end(sh.Stats(), sh.Mem().StatsSnapshot())
	}
	phase.Store(phaseStop)
	wg.Wait()

	o := &outcome{setupTimes: setupTimes}
	for _, w := range ws {
		if w.err != nil {
			return nil, w.err
		}
	}
	// Teardown: every producer has stopped, so the inboxes can be closed
	// and drained, then the magazines returned.
	for _, w := range ws {
		if cfg.gentag {
			close(w.inboxFat)
			for b := range w.inboxFat {
				if err := w.freeBatchFat(nil, b); err != nil {
					return nil, err
				}
			}
		} else {
			close(w.inbox)
			for b := range w.inbox {
				if err := w.freeBatch(nil, b); err != nil {
					return nil, err
				}
			}
		}
	}
	for _, m := range mags {
		m.Close()
	}
	if err := sh.CheckInvariants(); err != nil {
		o.invariantErr = fmt.Errorf("CheckInvariants: %w", err)
	}
	final := sh.Stats()

	var lat []float64
	var doubles, wilds, bad int64
	tr := newTracer(epoch, 4, 1, 1024)
	for _, w := range ws {
		lat = append(lat, w.lat...)
		o.attempted += w.sessions + w.tracedSessions
		o.failed += w.failed
		o.measured += w.sessions
		doubles += w.doubles
		wilds += w.wilds
		bad += w.badVerdicts
		tr.merge(w.tr)
	}
	o.reqNs = lat
	o.lat = summarize(append([]float64(nil), lat...))
	o.reqPerS = float64(o.measured) / window
	o.memMB = float64(pagesAtEnd) * vmem.PageSize / (1 << 20)
	o.injectedDoubles, o.injectedWilds = doubles, wilds
	o.final = *final

	// The heap ledger must balance exactly: every object freed, every
	// injected double free rejected as stale, every injected interior
	// free ignored, and nothing else rejected or ignored.
	var balance []string
	if final.LiveObjects != 0 {
		balance = append(balance, fmt.Sprintf("LiveObjects=%d after teardown", final.LiveObjects))
	}
	if final.StaleFrees != uint64(doubles) {
		balance = append(balance, fmt.Sprintf("StaleFrees=%d, injected doubles=%d", final.StaleFrees, doubles))
	}
	if final.IgnoredFrees != uint64(wilds) {
		balance = append(balance, fmt.Sprintf("IgnoredFrees=%d, injected wild frees=%d", final.IgnoredFrees, wilds))
	}
	if bad > 0 {
		balance = append(balance, fmt.Sprintf("%d local frees got the wrong verdict", bad))
	}
	o.balance = balance
	// A ledger mismatch is a failed operation: it is counted against the
	// sessions attempted, and it fails the run through the invariant
	// check as well when the structures disagree.
	o.failed += absDiff(final.StaleFrees, uint64(doubles)) + absDiff(final.IgnoredFrees, uint64(wilds))

	if tp != nil {
		tp.tr = tr
		tp.untracedReqPerS = o.reqPerS
		tp.untracedP50 = o.lat.P50
		tp.tracedReqPerS = float64(tr.ops[opReq].calls) / tracedWindow
		o.traced = tp
	}
	return o, nil
}

func absDiff(a, b uint64) int64 {
	if a > b {
		return int64(a - b)
	}
	return int64(b - a)
}
