package core

// The per-worker allocation magazine (DESIGN.md §11): the Hoard/
// tcmalloc-style front end that makes the lock-free malloc path scale
// instead of merely exist. PR 5 removed the locks but left every malloc
// touching three shared atomics (occupancy CAS, probe-stream CAS,
// bitmap CAS) and every free two more; under contention the losers
// replay whole probe sequences. A Magazine amortizes all of that: it
// holds a small store of pre-claimed slots per hot size class, refilled
// by ONE batched CAS occupancy reservation plus a batched draw of the
// class probe stream (a contiguous prefix of the per-class MWC
// sequence, published with a single CAS), and a local free buffer whose
// bitmap clears, occupancy decrements, and statistics publish in
// batches. A malloc on the fast path pops a pre-claimed slot and a free
// pushes into the local buffer — zero shared cache lines touched.
//
// The randomized-placement guarantees behind Theorem 1 survive batching
// by construction: a refill consumes exactly the prefix of the class
// draw stream that the same number of back-to-back unbatched mallocs
// would have consumed, against the same bitmap state (claims are made
// slot-by-slot as drawn, so each draw sees its predecessors exactly as
// the unbatched probe loop does). At one goroutine the publication CAS
// never loses, so a magazine-fed sequential workload places every
// object at the address the unbatched engine places it — the prefix
// property TestMagazinePrefixPlacement pins, which is what keeps the
// golden campaign OutputHash recordings meaningful as the ground truth.

import (
	"errors"
	"fmt"

	"diehard/internal/heap"
	"diehard/internal/obs"
)

const (
	// magInitialCap is a fresh magazine's per-class capacity; each
	// refill doubles it up to MagazineMaxCap, so one-shot classes stay
	// nearly batch-free while hot classes earn full batching.
	magInitialCap = 8
	// MagazineMaxCap is the largest per-class magazine: the bound on
	// slots a worker can hold pre-claimed (and on frees it can buffer)
	// per class, and therefore on how far a magazine-held class's
	// apparent occupancy can lead its true live count between drains.
	MagazineMaxCap = 64
	// minObjectShift is log2(MinObjectSize): subregion shifts map to
	// class indices by subtracting it.
	minObjectShift = 3
)

// magFree is one locally buffered free: the slot stays bitmap-live (so
// probes and double frees keep treating it exactly like a live object)
// until the flush publishes the clear. shard indexes the owning shard
// for sharded magazines (always 0 in single-heap mode); the struct
// carries one pointer so buffering a free costs one write barrier.
type magFree struct {
	sub   *subregion
	local int32
	shard int32
}

// classMagazine is one size class's local state: pre-claimed slots in
// draw order, pending (unpublished) malloc counters, and the free
// buffer. The slot buffer is allocated once at MagazineMaxCap, so the
// refill loop allocates nothing.
type classMagazine struct {
	owner          *Heap      // shard the claimed slots and pending stats belong to
	slots          []heap.Ptr // pre-claimed slots, FIFO in stream draw order
	next           int        // pop cursor into slots
	cap            int        // current refill batch size (adaptive)
	pendingMallocs int        // popped slots not yet published to owner stats
	pendingReq     uint64     // requested bytes of those pops
	free           []magFree  // buffered frees awaiting batch publication
}

// Magazine is a per-worker allocation front end over a lock-free
// DieHard heap (or a ShardedHeap, where each refill re-routes to the
// emptiest shard for the class — the occupancy hysteresis of DESIGN.md
// §11: shard occupancy is re-read once per magazine lifetime instead of
// once per malloc). A Magazine is owned by exactly one goroutine at a
// time; the backing heap remains safe for any number of magazines plus
// unbatched callers concurrently. Create with Heap.NewMagazine or
// ShardedHeap.NewMagazine; call Drain at barriers where exact counters
// or an exact free-slot view are needed, and Close when done.
//
// Invalid frees keep DieHard's §4.3 semantics with one batching-shaped
// shift: a pre-claimed (not yet served) slot is bitmap-live, so a wild
// free forging its address is accepted the way a wild free of any live
// object always was, where the unbatched engine would have ignored it
// (the slot would still have been free). The exposure is bounded by
// MagazineMaxCap slots per class per magazine.
type Magazine struct {
	h       *Heap        // single-heap mode: the pinned heap
	sh      *ShardedHeap // sharded mode: refills re-route by occupancy
	heaps   []*Heap      // the heaps magFree.shard indexes: the shards, or just h
	tally   []freeTally  // per-heap flush outcomes, reused across flushes
	classes [NumClasses]classMagazine

	// trace is the worker's flight-recorder ring (SetTrace): magazine
	// mallocs, frees, refills, and flushes emit stamped events. The
	// magazine's single-owner contract makes the ring effectively
	// single-producer, so its timeline is strictly ordered. Nil = one
	// predictable branch per operation, the disabled-path contract.
	trace *obs.Ring
}

// SetTrace installs (or removes, with nil) the flight-recorder ring
// for this magazine's events. Call from the owner goroutine.
func (m *Magazine) SetTrace(r *obs.Ring) { m.trace = r }

// NewMagazine returns a per-worker magazine over this heap. The heap
// must not have observation hooks installed: a detection engine audits
// canaries at every alloc and free boundary, which is exactly the
// per-operation precision batching gives up.
func (h *Heap) NewMagazine() (*Magazine, error) {
	if h.opts.OnAlloc != nil || h.opts.OnFree != nil {
		return nil, fmt.Errorf("diehard: magazines cannot batch past per-operation observation hooks")
	}
	m := &Magazine{h: h, heaps: []*Heap{h}}
	m.init()
	h.registerMagazine(m)
	return m, nil
}

// NewMagazine returns a per-worker magazine over the sharded heap: the
// registration handle workers use instead of pinning a shard. Each
// class refill routes to the shard whose class occupancy is lowest at
// refill time (falling over to the others if it is at its threshold),
// so routing reads amortize across a whole magazine instead of every
// malloc; frees route to the owning shard by page index as always.
func (sh *ShardedHeap) NewMagazine() (*Magazine, error) {
	if s := sh.shards[0]; s.opts.OnAlloc != nil || s.opts.OnFree != nil {
		return nil, fmt.Errorf("diehard: magazines cannot batch past per-operation observation hooks")
	}
	m := &Magazine{sh: sh, heaps: sh.shards}
	m.init()
	sh.registerMagazine(m)
	return m, nil
}

func (m *Magazine) init() {
	m.tally = make([]freeTally, len(m.heaps))
	for c := range m.classes {
		m.classes[c].cap = magInitialCap
		m.classes[c].owner = m.h // nil in sharded mode until the first refill
	}
}

// backing is the allocator behind this magazine, for the paths that
// bypass batching (large objects, foreign and misaligned pointers).
func (m *Magazine) backing() heap.Allocator {
	if m.sh != nil {
		return m.sh
	}
	return m.h
}

// Malloc serves size bytes from the magazine: the common case pops a
// pre-claimed slot and touches only magazine-local memory. An empty
// class refills through the batched lock-free protocol; large objects
// fall through to the backing allocator unbatched.
func (m *Magazine) Malloc(size int) (heap.Ptr, error) {
	if size > MaxObjectSize || size < 0 {
		return m.backing().Malloc(size)
	}
	if size == 0 {
		size = 1 // malloc(0) returns a distinct pointer, as in C
	}
	c := ClassFor(size)
	cm := &m.classes[c]
	if cm.next == len(cm.slots) {
		if err := m.refill(c, cm); err != nil {
			return heap.Null, err
		}
	}
	p := cm.slots[cm.next]
	cm.next++
	cm.pendingMallocs++
	cm.pendingReq += uint64(size)
	if m.trace != nil {
		m.trace.Emit(obs.EvMalloc, p)
	}
	return p, nil
}

// Free releases p: a small object of the backing heap is buffered
// locally and published in a batch (its bitmap bit stays set until
// then, so the slot keeps reading as live everywhere); everything else
// — large objects, foreign pointers, misaligned interior pointers —
// takes the backing allocator's unbatched path, which already counts
// the §4.3 ignores.
func (m *Magazine) Free(p heap.Ptr) error {
	if p == heap.Null {
		return nil
	}
	var (
		sub   *subregion
		local int
		shard int32
	)
	for i, s := range m.heaps {
		if _, sub, local = s.find(p); sub != nil {
			shard = int32(i)
			break
		}
	}
	if sub == nil {
		return m.backing().Free(p)
	}
	if (p-sub.base)&sub.cl.mask != 0 {
		return m.backing().Free(p) // misaligned interior pointer: ignored there
	}
	c := int(sub.shift) - minObjectShift
	cm := &m.classes[c]
	cm.free = append(cm.free, magFree{sub: sub, local: int32(local), shard: shard})
	if m.trace != nil {
		m.trace.Emit(obs.EvFree, p)
	}
	if len(cm.free) >= cm.cap {
		m.flushFrees(c, cm, false)
	}
	return nil
}

// refill restocks class c: pending malloc stats are published to the
// outgoing owner, buffered frees are recycled first (their occupancy
// must be visible before reserving more, or a heap at its 1/M threshold
// would refuse a refill its own buffer has already paid for), and then
// one batched reservation plus one batched stream draw claims the next
// stretch of slots. In sharded mode the refill lands on the emptiest
// shard for the class, falling over to the others at its threshold —
// the same steal order ShardedHeap.Malloc uses, amortized to once per
// magazine.
func (m *Magazine) refill(c int, cm *classMagazine) error {
	m.publishMallocs(c, cm)
	m.flushFrees(c, cm, false)
	want := cm.cap
	if cm.cap < MagazineMaxCap {
		cm.cap *= 2
	}
	if cm.slots == nil {
		cm.slots = make([]heap.Ptr, 0, MagazineMaxCap)
	}
	buf := cm.slots[:want]
	owner := m.h
	if m.sh != nil {
		owner = m.sh.refillShard(c)
	}
	got, err := owner.magazineRefill(c, buf)
	if err != nil && m.sh != nil && errors.Is(err, heap.ErrOutOfMemory) {
		tried := map[*Heap]bool{owner: true}
		for len(tried) < len(m.sh.shards) {
			next, _ := m.sh.emptiest(m.sh.classLoad(c), tried)
			if got, err = next.magazineRefill(c, buf); err == nil {
				owner = next
				break
			}
			if !errors.Is(err, heap.ErrOutOfMemory) {
				return err
			}
			tried[next] = true
		}
	}
	if err != nil {
		return err
	}
	cm.owner = owner
	cm.slots = buf[:got]
	cm.next = 0
	if m.trace != nil {
		m.trace.Emit(obs.EvRefill, uint64(got))
	}
	return nil
}

// publishMallocs pushes the class's served-malloc counters to the owner
// the slots came from, in one batched stats update.
func (m *Magazine) publishMallocs(c int, cm *classMagazine) {
	if cm.pendingMallocs == 0 {
		return
	}
	alloc := uint64(cm.pendingMallocs) * uint64(ClassSize(c))
	cm.owner.countMallocs(cm.pendingMallocs, cm.pendingReq, alloc)
	cm.pendingMallocs = 0
	cm.pendingReq = 0
}

// flushFrees publishes the class's buffered frees: one bitmap clear per
// slot (CAS on concurrent heaps — of racing frees of one pointer,
// exactly one wins, preserving §4.3 double-free detection across
// magazines) and then, per owning shard, one occupancy decrement and
// one batched stats update for all the winners together.
//
// On a sharded heap with remote rings, an incremental flush (sync ==
// false) hands frees of *foreign* shards — any shard other than the one
// this magazine currently refills from — to that shard's ring instead
// of CAS-ing its bitmap from here; the owner applies them at its own
// drain points. Barrier flushes (sync == true, from Drain) apply
// everything in place, so the drain contract stays as strong as rings
// allow: after Drain plus the owners' ring drains (which
// CheckInvariants performs), every counter is exact.
func (m *Magazine) flushFrees(c int, cm *classMagazine, sync bool) {
	if len(cm.free) == 0 {
		return
	}
	if m.trace != nil {
		m.trace.Emit(obs.EvFlush, uint64(len(cm.free)))
	}
	for _, e := range cm.free {
		s := m.heaps[e.shard]
		if !sync && s != cm.owner && s.remote != nil &&
			s.remote.enqueue(e.sub.base+uint64(e.local)<<e.sub.shift, 0) {
			continue // the foreign owner will clear it at its next drain
		}
		// On tagged heaps (DESIGN.md §15) the generation word arbitrates
		// each buffered free before its bit-clear, exactly as the
		// synchronous path does.
		m.tally[e.shard][s.release(e.sub, int(e.local), 0)]++
	}
	for i, s := range m.heaps {
		s.finishBatchedFrees(c, &m.tally[i])
	}
	cm.free = cm.free[:0]
}

// Drain publishes everything the magazine holds back: pending malloc
// statistics, buffered frees (applied in place, never rerouted to remote
// rings), and every unconsumed pre-claimed slot (returned to its heap:
// bit cleared, occupancy released — they were never served, so no free
// is counted). After a drain the backing heap's counters, bitmaps, and
// FreeSlots walks are exact up to frees earlier incremental flushes
// handed to remote-free rings; CheckInvariants drains magazines and then
// the rings, restoring full exactness at that barrier (heaps without
// Options.RemoteRing are exact after Drain alone, as before). The
// magazine remains usable; the next malloc simply refills.
func (m *Magazine) Drain() {
	for c := range m.classes {
		cm := &m.classes[c]
		m.publishMallocs(c, cm)
		m.flushFrees(c, cm, true)
		m.returnClaims(c, cm)
	}
}

// returnClaims hands unconsumed pre-claimed slots back to their owner.
// Only released slots give their occupancy unit back: a pre-claimed slot
// stolen by a wild free already gave its unit back at that free, and a
// retired one keeps its unit.
func (m *Magazine) returnClaims(c int, cm *classMagazine) {
	if cm.next < len(cm.slots) {
		owner := cm.owner
		owner.addInUse(&owner.classes[c], -int64(owner.unclaim(cm.slots[cm.next:])))
	}
	cm.slots = cm.slots[:0]
	cm.next = 0
}

// Close drains the magazine and unregisters it from its heap's drain
// barrier. The magazine must not be used afterwards.
func (m *Magazine) Close() {
	m.Drain()
	if m.sh != nil {
		m.sh.unregisterMagazine(m)
	} else {
		m.h.unregisterMagazine(m)
	}
}

// registerMagazine adds m to the heap's drain barrier.
func (h *Heap) registerMagazine(m *Magazine) {
	h.magMu.Lock()
	if h.magazines == nil {
		h.magazines = make(map[*Magazine]struct{})
	}
	h.magazines[m] = struct{}{}
	h.magMu.Unlock()
}

func (h *Heap) unregisterMagazine(m *Magazine) {
	h.magMu.Lock()
	delete(h.magazines, m)
	h.magMu.Unlock()
}

// DrainMagazines drains every magazine registered on this heap: the
// drain barrier detection audits and invariant checks run behind. Like
// the quiescent-exactness contract of CheckInvariants itself, the
// magazines' owner goroutines must not be mid-operation.
func (h *Heap) DrainMagazines() {
	h.magMu.Lock()
	mags := make([]*Magazine, 0, len(h.magazines))
	for m := range h.magazines {
		mags = append(mags, m)
	}
	h.magMu.Unlock()
	for _, m := range mags {
		m.Drain()
	}
}

// finishBatchedFrees publishes a flush batch's outcome for this heap
// and resets the tally: wins release occupancy and count as frees in one
// shot; losers are the §4.3 double frees, detected (their release found
// the slot already free) and ignored; retired slots keep their unit.
func (h *Heap) finishBatchedFrees(c int, t *freeTally) {
	if wins := t[genWin]; wins > 0 {
		cl := &h.classes[c]
		h.addInUse(cl, -int64(wins))
		h.addStat(&h.stats.WorkUnits, uint64(wins)*heap.WorkBitmap)
		h.countFrees(wins, uint64(wins)*uint64(cl.size))
	}
	if t[genLose] > 0 {
		h.addStat(&h.stats.IgnoredFrees, uint64(t[genLose]))
	}
	if t[genRetireOut] > 0 {
		h.addStat(&h.stats.Retired, uint64(t[genRetireOut]))
	}
	*t = freeTally{}
}

// magazineRefill claims up to len(buf) slots of class c for a magazine
// through the allocation kernel. Refill is the owner's natural housekeeping
// point: it first applies whatever the remote-free ring has accumulated
// (opportunistically — if another goroutine is mid-drain, skip), so
// queued frees keep feeding the classes being refilled.
func (h *Heap) magazineRefill(c int, buf []heap.Ptr) (int, error) {
	h.tryDrainRemote()
	return h.claim(c, buf)
}
