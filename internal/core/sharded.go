package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"diehard/internal/heap"
	"diehard/internal/obs"
	"diehard/internal/rng"
	"diehard/internal/vmem"
)

// ShardedHeap is a Hoard-style scalable front end over N independent
// DieHard heaps (Berger et al., ASPLOS 2000 lineage; here each per-shard
// heap is a full randomized DieHard allocator) — the multi-worker
// malloc path of the concurrency model (DESIGN.md §7). All shards
// allocate out of one shared address space, so a pointer from any shard
// is usable through Mem() like any other pointer, while the randomized
// metadata — bitmaps, counters, probe streams — stays private per
// shard. Throughput scales because concurrent mallocs land on different
// shards (and, within a shard, on different size-class locks).
//
// DieHard's per-heap guarantees are preserved shard-wise: each shard is
// its own M-expanded heap, so Theorem 1/2 masking probabilities hold for
// the objects of each shard exactly as for a stand-alone heap of that
// size. Free routes any pointer to its owning shard in O(shards) worst
// case (O(1) page-index lookup per shard), and invalid or double frees
// are ignored just as §4.3 prescribes.
//
// Unpinned mallocs are routed by occupancy (DESIGN.md §10): the request
// steals a slot from the shard whose target size class is emptiest right
// now, read from the per-shard atomic occupancy counters the allocation
// kernel maintains anyway. Shards are equal-sized, so comparing raw
// counts compares fullness — the slot-granular analog of Hoard stealing
// the emptiest superblock — and skewed worker load can no longer drive
// one shard into its 1/M threshold while its siblings sit empty.
//
// RandomFill (replicated mode) is not supported: replica voting gives
// each replica a private space, which is exactly what sharding gives up.
// TLB simulation is likewise sequential-only.
type ShardedHeap struct {
	space  *vmem.Space
	shards []*Heap
	seed   uint64
	stats  heap.Stats // aggregate snapshot storage is per-call; this holds sharded-level counters (ignored frees)

	// route is the per-class steal-routing hysteresis word (DESIGN.md
	// §11): the sticky shard's index plus one in the high half (0 = no
	// route), and in the low half the mark — the low 32 bits of that
	// shard's class claim count (sizeClass.mallocs) at which the window
	// ends. While the count is below the mark, Malloc reuses the sticky
	// shard instead of re-reading every shard's occupancy. The word is
	// written once per window, not per malloc: the window is counted on
	// the claim count the sticky shard's claims write anyway, so magazine
	// refills on that shard and class shorten it — the route is a
	// heuristic, never a correctness input. A shard at its class
	// threshold or out of memory zeroes the word so rerouting is
	// immediate.
	route [NumClasses]atomic.Uint64

	magMu     sync.Mutex // guards the magazine registry, not the magazines
	magazines map[*Magazine]struct{}

	// trace is the router's own flight-recorder ring (AttachRecorder):
	// steal-routing decisions emit here, while each shard's engine
	// events go to that shard's ring. Nil = disabled, one branch.
	trace *obs.Ring
}

// routeWindow is how many small-object mallocs reuse one occupancy
// decision before the router re-reads the per-shard counters. Magazines
// make their own routing decision once per refill; this window is the
// equivalent amortization for unbatched callers.
const routeWindow = 32

var _ heap.Allocator = (*ShardedHeap)(nil)

// NewSharded creates a sharded DieHard heap with n shards. opts
// configures each shard, except that HeapSize (defaulting to the paper's
// 384 MB) is the total across shards — each shard manages HeapSize/n —
// and per-shard seeds are derived from opts.Seed. RandomFill and
// EnableTLB are rejected.
func NewSharded(n int, opts Options) (*ShardedHeap, error) {
	if n <= 0 {
		return nil, fmt.Errorf("diehard: shard count %d must be positive", n)
	}
	if opts.RandomFill {
		return nil, fmt.Errorf("diehard: RandomFill (replicated mode) requires per-replica spaces, not shards")
	}
	if opts.EnableTLB {
		return nil, fmt.Errorf("diehard: TLB simulation is sequential and cannot be sharded")
	}
	o := opts.withDefaults()
	perShard := o.HeapSize / n
	if perShard/NumClasses < vmem.PageSize {
		return nil, fmt.Errorf("diehard: heap size %d too small for %d shards", o.HeapSize, n)
	}
	master := rng.NewSeeded(o.Seed)
	if o.Seed == 0 {
		master = rng.New()
	}
	sh := &ShardedHeap{
		space: vmem.NewSpace(),
		seed:  master.Seed(),
	}
	sh.space.SetStatsMode(vmem.StatsShared)
	for i := 0; i < n; i++ {
		so := o
		so.HeapSize = perShard
		so.Seed = master.Split().Seed()
		// The router's unlocked occupancy reads are only race-free
		// against atomic writers.
		so.Concurrent = true
		h, err := newHeap(so, sh.space)
		if err != nil {
			return nil, fmt.Errorf("diehard: shard %d: %w", i, err)
		}
		sh.shards = append(sh.shards, h)
	}
	return sh, nil
}

// Shards returns the number of shards.
func (sh *ShardedHeap) Shards() int { return len(sh.shards) }

// Shard returns shard i as a full DieHard heap sharing this heap's
// address space. Workers that pin themselves to a shard (i = worker
// index mod Shards()) get completely contention-free malloc paths;
// pointers remain freeable through any shard view or the ShardedHeap
// itself.
func (sh *ShardedHeap) Shard(i int) *Heap { return sh.shards[i%len(sh.shards)] }

// Malloc allocates from the emptiest shard for the request's size class
// (ties break to the lowest shard index, so routing is deterministic in
// the observed occupancies). The estimate is one atomic load per shard —
// the same counter the lock-free malloc path reserves against — so
// routing costs O(shards) loads and no locks, and a shard near its 1/M
// threshold stops attracting requests instead of failing them while its
// siblings have room. If the chosen shard still refuses (a reservation
// race at its threshold boundary, or an exact occupancy tie), the
// remaining shards are retried in ascending occupancy, so a routed
// request fails only when every shard is genuinely out of memory.
// Workers that want stable placement should allocate through Shard(i)
// instead.
func (sh *ShardedHeap) Malloc(size int) (heap.Ptr, error) {
	p, _, err := sh.malloc(size)
	return p, err
}

// malloc is Malloc, also returning the shard that served the request.
func (sh *ShardedHeap) malloc(size int) (heap.Ptr, *Heap, error) {
	if size > MaxObjectSize {
		// Large objects bypass the size classes; balance them by the
		// live bytes of each shard's large-object ledger instead of class
		// occupancy. No hysteresis: large allocations are rare and each
		// shifts the balance materially.
		load := (*Heap).largeLiveBytes
		best, _ := sh.emptiest(load, nil)
		return sh.mallocRetrying(best, size, load)
	}
	c := ClassFor(size)
	load := sh.classLoad(c)
	// Hysteresis fast path: reuse the last routing decision while its
	// window lasts — two loads of lines the sticky shard's claim touches
	// anyway, and no shared write.
	if st := sh.route[c].Load(); st != 0 {
		s := sh.shards[st>>32-1]
		cl := &s.classes[c]
		if atomic.LoadInt64(&cl.inUse) >= cl.maxInUse.Load() {
			// The routed *class* hit its 1/M threshold mid-window: drop
			// the sticky shard now, before wasting a malloc on it. Riding
			// the window used to reroute only after an observed
			// out-of-memory — which an adaptive shard never reports while
			// it can still grow, so a full-but-growable shard kept
			// absorbing the whole window while emptier siblings sat idle.
			sh.route[c].Store(0)
		} else if int32(uint32(atomic.LoadUint64(&cl.mallocs))-uint32(st)) < 0 {
			p, err := s.Malloc(size)
			if err == nil || !errors.Is(err, heap.ErrOutOfMemory) {
				return p, s, err
			}
			sh.route[c].Store(0) // sticky shard is full: reroute now
		}
	}
	best, idx := sh.emptiest(load, nil)
	p, err := best.Malloc(size)
	if err == nil {
		// The window is this malloc plus routeWindow − 1 more claims.
		mark := uint32(atomic.LoadUint64(&best.classes[c].mallocs)) + routeWindow - 1
		sh.route[c].Store(uint64(idx+1)<<32 | uint64(mark))
		if sh.trace != nil {
			// One event per routing decision (not per malloc): the new
			// sticky shard for this class.
			sh.trace.Emit(obs.EvSteal, uint64(idx)<<32|uint64(c))
		}
		return p, best, nil
	}
	if !errors.Is(err, heap.ErrOutOfMemory) {
		return p, best, err
	}
	return sh.mallocRetrying(best, size, load)
}

// mallocRetrying runs the slow routing pass after the preferred shard
// refused: the remaining shards in ascending load order, so a routed
// request fails only when every shard is genuinely out of memory. The
// exclusion set is allocated off the hot path.
func (sh *ShardedHeap) mallocRetrying(first *Heap, size int, load func(*Heap) int64) (heap.Ptr, *Heap, error) {
	p, err := first.Malloc(size)
	if err == nil || !errors.Is(err, heap.ErrOutOfMemory) {
		return p, first, err
	}
	tried := map[*Heap]bool{first: true}
	for len(tried) < len(sh.shards) {
		next, _ := sh.emptiest(load, tried)
		if p, err = next.Malloc(size); err == nil || !errors.Is(err, heap.ErrOutOfMemory) {
			return p, next, err
		}
		tried[next] = true
	}
	return heap.Null, nil, err
}

// classLoad returns the routing load function for size class c: the
// shard's class occupancy, one atomic read of the counter the lock-free
// malloc path reserves against.
func (sh *ShardedHeap) classLoad(c int) func(*Heap) int64 {
	return func(s *Heap) int64 { return atomic.LoadInt64(&s.classes[c].inUse) }
}

// refillShard picks the shard a magazine refill of class c should land
// on: the emptiest right now. Magazines re-route once per refill, so
// this read amortizes over the whole batch.
func (sh *ShardedHeap) refillShard(c int) *Heap {
	best, _ := sh.emptiest(sh.classLoad(c), nil)
	return best
}

// emptiest returns the non-excluded shard minimizing load and its
// index, ties to the lowest index.
func (sh *ShardedHeap) emptiest(load func(*Heap) int64, excluded map[*Heap]bool) (*Heap, int) {
	var best *Heap
	var bestLoad int64
	bestIdx := 0
	for i, s := range sh.shards {
		if excluded[s] {
			continue
		}
		if use := load(s); best == nil || use < bestLoad {
			best, bestLoad, bestIdx = s, use, i
		}
	}
	return best, bestIdx
}

// owner returns the shard owning p, or nil. Small objects resolve via
// each shard's lock-free O(1) page index, all of which are checked
// before any shard's large-object table, so routing a small-object free
// never takes a foreign shard's lock.
func (sh *ShardedHeap) owner(p heap.Ptr) *Heap {
	for _, s := range sh.shards {
		if s.InHeap(p) {
			return s
		}
	}
	for _, s := range sh.shards {
		if s.ownsLarge(p) {
			return s
		}
	}
	return nil
}

// routeFree is the one owner-routing step behind the four ShardedHeap
// frees: null is a no-op, a pointer some shard owns goes to that shard's
// entry via, and a pointer no shard owns loses at the router — an
// ignored free on the thin routes (§4.3), and on the fat ones a stale
// free reported exactly as Heap.FreeFat reports one (counter,
// EvStaleFree on the router's ring, OnStaleFree). A fat pointer owned by
// no shard is stale by construction: its large object was already freed.
func (sh *ShardedHeap) routeFree(fp heap.FatPtr, fat bool, via func(*Heap, heap.FatPtr) (bool, error)) (bool, error) {
	if fp.Addr == heap.Null {
		return true, nil
	}
	if s := sh.owner(fp.Addr); s != nil {
		return via(s, fp)
	}
	if !fat {
		atomic.AddUint64(&sh.stats.IgnoredFrees, 1)
		return false, nil
	}
	atomic.AddUint64(&sh.stats.StaleFrees, 1)
	if sh.trace != nil {
		sh.trace.Emit(obs.EvStaleFree, fp.Addr)
	}
	if f := sh.shards[0].opts.OnStaleFree; f != nil {
		f(fp.Addr, fp.Gen)
	}
	return false, nil
}

// Free routes p to its owning shard's synchronous free.
func (sh *ShardedHeap) Free(p heap.Ptr) error {
	_, err := sh.routeFree(heap.FatPtr{Addr: p}, false, (*Heap).free)
	return err
}

// RemoteFree routes p to its owning shard's ring, falling back to the
// synchronous path exactly as Heap.RemoteFree does.
func (sh *ShardedHeap) RemoteFree(p heap.Ptr) error {
	_, err := sh.routeFree(heap.FatPtr{Addr: p}, false, (*Heap).remoteFree)
	return err
}

// FreeFat routes fp to its owning shard's gen-checked free.
func (sh *ShardedHeap) FreeFat(fp heap.FatPtr) (bool, error) {
	return sh.routeFree(fp, true, (*Heap).FreeFat)
}

// RemoteFreeFat routes fp to its owning shard's ring with the
// generation attached.
func (sh *ShardedHeap) RemoteFreeFat(fp heap.FatPtr) (bool, error) {
	return sh.routeFree(fp, true, (*Heap).RemoteFreeFat)
}

// SizeOf reports the usable size of the allocated object starting
// exactly at p, whichever shard owns it.
func (sh *ShardedHeap) SizeOf(p heap.Ptr) (int, bool) {
	if s := sh.owner(p); s != nil {
		return s.SizeOf(p)
	}
	return 0, false
}

// ObjectBounds resolves any pointer (including interior pointers) to the
// containing allocated object, for the checked libc replacements.
func (sh *ShardedHeap) ObjectBounds(p heap.Ptr) (start heap.Ptr, size int, ok bool) {
	for _, s := range sh.shards {
		if start, size, ok = s.ObjectBounds(p); ok {
			return start, size, ok
		}
	}
	return 0, 0, false
}

// InHeap reports whether p lies within any shard's small-object regions.
func (sh *ShardedHeap) InHeap(p heap.Ptr) bool {
	for _, s := range sh.shards {
		if s.InHeap(p) {
			return true
		}
	}
	return false
}

// Mem returns the shared simulated address space all shards allocate in.
func (sh *ShardedHeap) Mem() *vmem.Space { return sh.space }

// Stats returns a fresh aggregate snapshot of all shard counters (plus
// frees the router ignored), like Heap.Stats. PeakLiveBytes is the sum
// of the shards' peaks, each itself a sum of ledger high-water marks
// (Heap.StatsSnapshot): an upper bound on the true simultaneous peak.
func (sh *ShardedHeap) Stats() *heap.Stats {
	st := sh.StatsSnapshot()
	return &st
}

// StatsSnapshot returns the aggregate counters by value: the field-wise
// sum of the shards' snapshots and the router's own counters.
func (sh *ShardedHeap) StatsSnapshot() heap.Stats {
	agg := heap.Stats{
		IgnoredFrees: atomic.LoadUint64(&sh.stats.IgnoredFrees),
		StaleFrees:   atomic.LoadUint64(&sh.stats.StaleFrees),
	}
	for _, s := range sh.shards {
		st := s.StatsSnapshot()
		agg.Mallocs += st.Mallocs
		agg.Frees += st.Frees
		agg.FailedMallocs += st.FailedMallocs
		agg.IgnoredFrees += st.IgnoredFrees
		agg.BytesRequested += st.BytesRequested
		agg.BytesAllocated += st.BytesAllocated
		agg.LiveObjects += st.LiveObjects
		agg.LiveBytes += st.LiveBytes
		agg.PeakLiveBytes += st.PeakLiveBytes
		agg.WorkUnits += st.WorkUnits
		agg.Probes += st.Probes
		agg.CASRetries += st.CASRetries
		agg.RemoteFrees += st.RemoteFrees
		agg.RemoteDrains += st.RemoteDrains
		agg.Quarantined += st.Quarantined
		agg.QuarantineOut += st.QuarantineOut
		agg.StaleFrees += st.StaleFrees
		agg.Retired += st.Retired
	}
	return agg
}

// AttachRecorder wires the flight recorder through the sharded heap:
// shard i emits its engine events (malloc/free/drain/quarantine/
// barrier) on rec.Ring(base+i), and the router emits steal decisions
// on rec.Ring(base+Shards()). Call before the heap is shared between
// goroutines; a nil recorder detaches everything.
func (sh *ShardedHeap) AttachRecorder(rec *obs.Recorder, base int) {
	for i, s := range sh.shards {
		if rec == nil {
			s.SetTrace(nil)
		} else {
			s.SetTrace(rec.Ring(base + i))
		}
	}
	if rec == nil {
		sh.trace = nil
	} else {
		sh.trace = rec.Ring(base + len(sh.shards))
	}
}

// PublishMetrics registers the aggregate counters as core.* gauges in
// reg, plus a per-shard core.shard_live_objects{shard=N} breakdown.
// Gauges read snapshots at scrape time, so live scrapes are race-free.
func (sh *ShardedHeap) PublishMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	publishStats(reg, sh.StatsSnapshot)
	for i, s := range sh.shards {
		shard := s
		reg.Gauge("core.shard_live_objects", func() float64 {
			return float64(shard.StatsSnapshot().LiveObjects)
		}, obs.Label{Name: "shard", Value: fmt.Sprint(i)})
	}
}

// FlushQuarantine releases every shard's quarantined slots (oldest-first
// per shard) and returns the total actually freed.
func (sh *ShardedHeap) FlushQuarantine() int {
	released := 0
	for _, s := range sh.shards {
		released += s.FlushQuarantine()
	}
	return released
}

// QuarantineLen reports the total entries held across all shards'
// quarantine FIFOs.
func (sh *ShardedHeap) QuarantineLen() int {
	n := 0
	for _, s := range sh.shards {
		n += s.QuarantineLen()
	}
	return n
}

// Name identifies the allocator in experiment reports.
func (sh *ShardedHeap) Name() string {
	return fmt.Sprintf("diehard-sharded(%d)", len(sh.shards))
}

// Seed returns the master seed the per-shard seeds derive from.
func (sh *ShardedHeap) Seed() uint64 { return sh.seed }

// registerMagazine adds m to the sharded heap's drain barrier.
func (sh *ShardedHeap) registerMagazine(m *Magazine) {
	sh.magMu.Lock()
	if sh.magazines == nil {
		sh.magazines = make(map[*Magazine]struct{})
	}
	sh.magazines[m] = struct{}{}
	sh.magMu.Unlock()
}

func (sh *ShardedHeap) unregisterMagazine(m *Magazine) {
	sh.magMu.Lock()
	delete(sh.magazines, m)
	sh.magMu.Unlock()
}

// DrainMagazines drains every magazine registered on the sharded heap;
// like Heap.DrainMagazines, the owner goroutines must be quiescent.
func (sh *ShardedHeap) DrainMagazines() {
	sh.magMu.Lock()
	mags := make([]*Magazine, 0, len(sh.magazines))
	for m := range sh.magazines {
		mags = append(mags, m)
	}
	sh.magMu.Unlock()
	for _, m := range mags {
		m.Drain()
	}
}

// CheckInvariants verifies every shard's segregated metadata, draining
// this heap's registered magazines first so pre-claimed slots and
// buffered frees cannot masquerade as live objects.
func (sh *ShardedHeap) CheckInvariants() error { return sh.checkInvariants(0) }

// CheckInvariantsSlack is CheckInvariants with Heap.CheckInvariantsSlack's
// §12 ledger allowance for untagged heaps under double-free injection;
// structural invariants stay exact on every shard. Each shard is granted
// the full allowance — the caller cannot know which shard a straddling
// double landed on.
func (sh *ShardedHeap) CheckInvariantsSlack(slack uint64) error {
	return sh.checkInvariants(slack)
}

func (sh *ShardedHeap) checkInvariants(slack uint64) error {
	sh.DrainMagazines()
	for i, s := range sh.shards {
		if err := s.checkInvariants(slack); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}
