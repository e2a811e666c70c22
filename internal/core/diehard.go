// Package core implements the DieHard randomized memory allocator, the
// primary contribution of Berger & Zorn, "DieHard: Probabilistic Memory
// Safety for Unsafe Languages" (PLDI 2006), §4.
//
// The allocator approximates an infinite heap: the heap is M times larger
// than the maximum live size, objects are placed uniformly at random
// within power-of-two size-class regions, and all heap metadata (one bit
// per object plus counters) is completely segregated from the heap
// itself. The resulting guarantees are probabilistic and quantified in
// internal/analysis:
//
//   - buffer overflows land on free space with probability (F/H)^O
//     (Theorem 1);
//   - a prematurely freed object survives A intervening allocations with
//     probability at least 1 - A/(F/S) (Theorem 2);
//   - invalid and double frees are detected and ignored outright;
//   - heap metadata cannot be overwritten by heap writes at all.
//
// In replicated mode (Options.RandomFill) the heap and every allocated
// object are filled with values from the replica's private random stream,
// which is what lets the voter in internal/replicate detect uninitialized
// reads (§3.2, Theorem 3).
//
// Concurrency (DESIGN.md §7, §10, §11): allocator metadata operations
// are goroutine-safe, and malloc is lock-free in the common case. There
// is one allocation engine: a claim-as-you-go kernel that reserves
// occupancy with one bounded CAS increment (so the 1/M threshold can
// never be overshot), draws slots from a register-resident copy of the
// per-class random stream, claims each slot by CASing the allocation
// bitmap word as it is drawn, and publishes the consumed draws with one
// CAS of the stream word (so one goroutine preserves the exact seeded
// sequence). An unbatched malloc is a claim of one slot; a magazine
// refill is a claim of many. The per-class mutex survives only for
// adaptive region growth. Pointer resolution for Free/SizeOf/
// ObjectBounds reads the page index lock-free. Concurrent use requires
// Options.Concurrent, which switches the aggregate Stats and the
// space's access accounting to atomic updates; heaps built without it
// keep unsynchronized counters, run the kernel fence-free, and must be
// confined to one goroutine at a time, as the sequential experiment
// trials are.
package core

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"diehard/internal/heap"
	"diehard/internal/obs"
	"diehard/internal/rng"
	"diehard/internal/vmem"
)

const (
	// NumClasses is the number of size-class regions: powers of two from
	// 8 bytes to 16 kilobytes (§4.1).
	NumClasses = 12
	// MinObjectSize is the smallest size class.
	MinObjectSize = 8
	// MaxObjectSize is the largest size served from the randomized
	// regions; larger requests are mmap'd directly with guard pages.
	MaxObjectSize = 16 * 1024
	// DefaultHeapSize matches the paper's evaluation configuration: a
	// 384 MB heap of which up to 1/M is available for allocation (§7.1).
	DefaultHeapSize = 384 << 20
	// DefaultM is the default heap expansion factor.
	DefaultM = 2.0
	// DefaultQuarantineCap is the quarantine FIFO bound when
	// Options.FreeFilter is set without an explicit QuarantineCap.
	DefaultQuarantineCap = 64
)

// Options configures a DieHard heap. The zero value selects the paper's
// defaults (384 MB heap, M = 2, stand-alone mode, entropy seed).
type Options struct {
	// HeapSize is the total size of the small-object heap, divided
	// evenly into NumClasses regions. Defaults to DefaultHeapSize.
	HeapSize int
	// M is the heap expansion factor: each region may become at most
	// 1/M full. Must be greater than 1. Defaults to DefaultM.
	M float64
	// Seed seeds the allocator's random stream; 0 draws a true random
	// seed, as the paper does from /dev/urandom. Replicas record their
	// seeds so failures are reproducible.
	Seed uint64
	// RandomFill enables replicated-mode semantics: the heap and every
	// allocated object are filled with random values (§4.1, §4.2). Each
	// object's fill words are drawn from its class stream right after the
	// probe draws that placed it, so a class's placements and fill values
	// are deterministic in its own allocation order.
	RandomFill bool
	// Adaptive enables the paper's future-work extension (§9): regions
	// start small and double on demand up to the per-class cap, trading
	// early error-masking probability for reserved address space.
	Adaptive bool
	// AdaptiveInitial is the initial per-class region size in bytes when
	// Adaptive is set. Defaults to 256 KB.
	AdaptiveInitial int
	// EnableTLB turns on TLB simulation in the underlying address space,
	// used by the Figure 5 cost model. TLB accounting models a single
	// hardware context; it is incompatible with Concurrent.
	EnableTLB bool
	// Concurrent prepares the heap for use by multiple goroutines at
	// once: allocator statistics are maintained atomically and the
	// underlying space counts accesses atomically (vmem.StatsShared).
	// Structural metadata is claimed and released by CAS; sequential
	// heaps run the same protocol with plain stores and skip the atomics.
	Concurrent bool
	// RemoteRing attaches a bounded multi-producer free ring to the heap
	// (DESIGN.md §12): RemoteFree enqueues the address with one atomic
	// ticket and the owner applies the clears in batches at its drain
	// points (magazine refill, threshold miss, CheckInvariants), so
	// cross-worker frees stop contending on the owner's bitmap and
	// occupancy cache lines. Sharded heaps propagate the option to every
	// shard. Requires Concurrent; incompatible with observation hooks
	// (hooked heaps are confined to one goroutine, which is exactly what
	// a remote producer is not).
	RemoteRing bool
	// GenTags attaches a generation counter to every small-object slot
	// (DESIGN.md §15): a per-subregion side array next to the bitmap, so
	// — like every other piece of DieHard metadata — tags live outside
	// user memory and object placement is byte-identical to an untagged
	// heap. The counter's parity encodes liveness (odd = allocated, even
	// = free): every claim bumps even→odd after winning its bitmap CAS,
	// and every free arbitrates by CAS-ing the counter odd→even *before*
	// clearing the bit, which makes the generation word — not the bitmap
	// bit — the single §4.3 arbiter of racing frees on tagged heaps.
	// MallocFat issues fat pointers (addr, generation) and FreeFat
	// rejects any whose generation is stale, turning the double free that
	// straddles a reallocation — undetectable in any pure bitmap
	// allocator (§12) — into a deterministic Stats.StaleFrees rejection.
	// A slot reaching the generation ceiling is retired (bit held set
	// forever, counted in Stats.Retired) so the 32-bit tag can never wrap
	// into a false "valid".
	GenTags bool
	// OnAlloc, when non-nil, is invoked after every successful
	// allocation with the object's address, the requested size, and the
	// size of the backing slot (the size-class object size, or the
	// page-rounded usable size for large objects). It runs on the
	// allocating goroutine, outside the class locks, before the pointer
	// is returned — so a detection engine (internal/detect) can audit
	// and re-arm canaries before the program can touch the object. The
	// heap does not synchronize hook invocations; heaps with hooks
	// installed must be confined to one goroutine at a time.
	OnAlloc func(p heap.Ptr, reqSize, slotSize int)
	// OnFree, when non-nil, is invoked on every successful free (ignored
	// invalid and double frees do not fire it) with the freed object's
	// address and slot size. For large objects the hook runs *before*
	// the guarded mapping is unmapped, so a detection engine can audit
	// the trailing-page slack that the unmap destroys; the hook can tell
	// them apart because their OnAlloc reported reqSize > MaxObjectSize.
	// The hooks fire exactly once per CAS winner: the goroutine that set
	// (or cleared) the slot's bit is the one that runs the hook, outside
	// any lock.
	OnFree func(p heap.Ptr, slotSize int)
	// OnStaleFree, when non-nil, is invoked whenever a generation-tagged
	// free (FreeFat) is rejected because the pointer's generation no
	// longer matches the slot's — the deterministic temporal-safety
	// signal a detection engine records as evidence. Like OnAlloc/OnFree
	// it runs unsynchronized on the freeing goroutine; hooked heaps are
	// confined to one goroutine and cannot combine with RemoteRing.
	OnStaleFree func(p heap.Ptr, gen uint64)
	// SizeAdjust, when non-nil, is consulted at the top of every Malloc
	// with the (normalized, positive) requested size and may return a
	// larger size to allocate instead — the per-site overallocation-
	// padding hook of the self-healing supervisor (internal/heal,
	// DESIGN.md §13). Returns smaller than the request are ignored: the
	// program was promised at least what it asked for. The adjusted size
	// is what the allocator serves, counts, and reports to OnAlloc, so a
	// padded object's slack is canary-audited like any other. The
	// callback runs on every allocating goroutine with no synchronization
	// from the heap; concurrent heaps must install a goroutine-safe
	// callback (e.g. one reading an atomically published table). Nil
	// costs one pointer check per Malloc.
	SizeAdjust func(size int) int
	// FreeFilter, when non-nil, is consulted on every Free of a live,
	// correctly aligned small-object slot. Returning true diverts the
	// free into the heap's quarantine FIFO — the delayed-reuse
	// countermeasure for dangling-pointer culprits (DESIGN.md §13): the
	// slot keeps its bitmap bit and its occupancy reservation, so the
	// probe stream never re-issues it, and stale writes land on memory no
	// new owner holds. Quarantined slots are actually released — bit
	// cleared, counters updated, OnFree fired — when the FIFO exceeds
	// QuarantineCap (oldest first) or at FlushQuarantine. Exactly-one-
	// winner free semantics are preserved: the release's CAS-clear
	// remains the single arbiter, so racing frees of a quarantined
	// pointer just enqueue twice and all but one release counts an
	// IgnoredFree. Magazine-buffered and remote-ring frees bypass the
	// filter (they batch past per-pointer interception); callers route
	// quarantinable frees through Heap.Free or ShardedHeap.Free. Like
	// SizeAdjust, the callback itself must be goroutine-safe on
	// concurrent heaps; nil costs one pointer check per Free.
	FreeFilter func(p heap.Ptr, slotSize int) bool
	// QuarantineCap bounds the quarantine FIFO (default 64): pushing past
	// the cap releases the oldest held slot. Larger caps hold freed slots
	// out of reuse longer at the cost of occupancy — the fullness shift
	// analysis.QuarantineFullnessShift prices.
	QuarantineCap int
	// Trace, when non-nil, is the heap's flight-recorder ring
	// (internal/obs): malloc, free, remote-free tickets, ring drains,
	// quarantine holds, and invariant barriers emit one fixed-size
	// stamped event each. Tracing observes the engine without steering
	// it — no RNG draw is consumed and no placement changes, so golden
	// campaign hashes are byte-identical with tracing on. Nil (the zero
	// value) costs exactly one pointer check per instrumented site, the
	// same discipline as the TLB hook; unlike OnAlloc/OnFree, the ring
	// is lock-free and multi-producer, so traced heaps may stay
	// Concurrent and keep RemoteRing.
	Trace *obs.Ring
}

func (o *Options) withDefaults() Options {
	v := *o
	if v.HeapSize == 0 {
		v.HeapSize = DefaultHeapSize
	}
	if v.M == 0 {
		v.M = DefaultM
	}
	if v.AdaptiveInitial == 0 {
		v.AdaptiveInitial = 256 << 10
	}
	if v.QuarantineCap <= 0 {
		v.QuarantineCap = DefaultQuarantineCap
	}
	return v
}

// subregion is one mapped stretch of a size class. Non-adaptive heaps
// have exactly one subregion per class; adaptive heaps append doubled
// subregions as demand grows. The class back-pointer and the shift
// duplicate (log2 of the class's object size) let a pointer-to-
// subregion resolved through the page index compute its slot without a
// second indirection. Bitmap access follows the heap's discipline
// (DESIGN.md §10): a concurrent heap claims and releases bits by CAS and
// reads them with atomic loads; a sequential (non-Concurrent) heap is
// confined to one goroutine, where the plain accessors are exact without
// any fence. On amd64 an atomic load is an ordinary MOV, so the read
// paths use atomic loads wherever a writer might race — the cost shows
// up only in stores, which Go compiles to XCHG. base, slots, and shift
// are immutable after construction.
type subregion struct {
	base  uint64
	slots int
	bits  []uint64 // allocation bitmap: one bit per slot, segregated metadata
	// gens is the per-slot generation word (Options.GenTags, DESIGN.md
	// §15), nil on untagged heaps. Parity encodes liveness (odd =
	// allocated): claims bump after winning the bitmap CAS, frees CAS
	// odd→even before clearing the bit — on tagged heaps this word, not
	// the bit, arbitrates racing frees. Segregated metadata like the
	// bitmap: heap writes cannot reach it, and placement is unchanged.
	gens  []uint32
	cl    *sizeClass
	shift uint
}

// endPn is one past the last page number the subregion's slots occupy.
func (s *subregion) endPn() uint64 {
	return (s.base + uint64(s.slots)<<s.shift + vmem.PageSize - 1) / vmem.PageSize
}

func (s *subregion) get(i int) bool { return s.bits[i>>6]&(1<<(i&63)) != 0 }
func (s *subregion) set(i int)      { s.bits[i>>6] |= 1 << (i & 63) }

// clearPlain clears bit i without a fence and reports whether it was
// set.
func (s *subregion) clearPlain(i int) bool {
	w, bit := &s.bits[i>>6], uint64(1)<<(i&63)
	old := *w
	*w = old &^ bit
	return old&bit != 0
}

func (s *subregion) getAtomic(i int) bool {
	return atomic.LoadUint64(&s.bits[i>>6])&(1<<(i&63)) != 0
}

// casSet claims slot i on the lock-free path: it retries until either
// this goroutine's CAS sets the bit (true — the caller owns the slot) or
// the bit is observed already set (false — a racing winner or an
// existing allocation holds it; the caller redraws). Retries only happen
// when a concurrent operation changed another bit of the same word, so
// the loop is lock-free: every failed CAS means someone else progressed.
func (s *subregion) casSet(i int) bool {
	w := &s.bits[i>>6]
	bit := uint64(1) << (i & 63)
	for {
		old := atomic.LoadUint64(w)
		if old&bit != 0 {
			return false
		}
		if atomic.CompareAndSwapUint64(w, old, old|bit) {
			return true
		}
	}
}

// casClear releases slot i on the lock-free path; false means the bit
// was already clear (a double free, detected exactly as §4.3 requires —
// of two racing frees of the same pointer, exactly one clears the bit).
func (s *subregion) casClear(i int) bool {
	w := &s.bits[i>>6]
	bit := uint64(1) << (i & 63)
	for {
		old := atomic.LoadUint64(w)
		if old&bit == 0 {
			return false
		}
		if atomic.CompareAndSwapUint64(w, old, old&^bit) {
			return true
		}
	}
}

// classRegions is a size class's immutable subregion list plus its slot
// total, published as one unit behind an atomic pointer so the lock-free
// probe loop always sees a slot count consistent with the subregions it
// indexes into. Adaptive growth publishes a copy; non-adaptive classes
// publish exactly once, at construction.
type classRegions struct {
	subs       []*subregion
	totalSlots int
	// rejectBelow is -totalSlots mod totalSlots, the Lemire rejection
	// threshold of a uniform draw over the class's slots, computed once
	// per publication instead of by a division on every claim.
	rejectBelow uint32
}

// locate maps a class-wide slot index to its subregion and local index.
// Non-adaptive heaps always hit the single-subregion fast path.
func (r *classRegions) locate(idx int) (*subregion, int) {
	if idx < r.subs[0].slots {
		return r.subs[0], idx
	}
	idx -= r.subs[0].slots
	for i := 1; i < len(r.subs); i++ {
		if idx < r.subs[i].slots {
			return r.subs[i], idx
		}
		idx -= r.subs[i].slots
	}
	panic("diehard: slot index out of range") // unreachable when invariants hold
}

// sizeClass holds the segregated metadata for one power-of-two region.
// The mutex is touched only by adaptive growth: probing draws from
// randState (the packed rng.Step stream), slots are claimed by bitmap
// CAS, and occupancy is reserved with a bounded CAS increment on inUse
// so the 1/M threshold holds at every instant, not just at quiescence —
// with the CAS machinery engaged only when Options.Concurrent declares
// real multi-goroutine use; sequential heaps run the same protocol
// fence-free (plain fields + sync/atomic function calls, so each heap
// pays only for the ordering it needs).
//
// The struct is two 64-byte lines (DESIGN.md §7). The first holds every
// word a claim or a free of the class writes — the stream, occupancy,
// the claim count and the class ledger — so an operation dirties one
// line its class owns, and classes never share one. The second is
// read-mostly. Heap.classes starts on a line boundary (see Heap;
// TestSizeClassLayout pins the layout and the alignment).
type sizeClass struct {
	randState uint64 // packed MWC probe/fill stream (rng.Step)
	inUse     int64  // live slots; never exceeds maxInUse
	mallocs   uint64 // slots claimed: unbatched mallocs plus magazine refills
	ledger    classLedger

	mu       sync.Mutex // adaptive growth
	size     int
	shift    uint                         // log2(size), for divisions on the hot path
	mask     uint64                       // size - 1, for alignment checks on the hot path
	regions  atomic.Pointer[classRegions] // subregions + slot total, copy-on-write
	maxInUse atomic.Int64                 // threshold: floor(totalSlots / M)
	capSlots int                          // adaptive growth stops here
	_        [8]byte                      // pad to two full lines
}

// classLedger is a size class's share of the heap counters: everything
// heap.Stats reports about small objects derives from the twelve
// ledgers and the claim counts (Heap.StatsSnapshot). A malloc is served
// when its pointer reaches the program — at once for Malloc, at the
// publication of a magazine's pending batch for magazine pops. peak is
// the class's high-water mark of served − frees.
type classLedger struct {
	served   uint64 // mallocs served
	frees    uint64 // frees that released a slot
	reqBytes uint64 // requested bytes of the served mallocs
	probes   uint64 // bitmap probes of committed claims
	peak     uint64 // live high-water mark, in objects
}

// largeLedger is the large objects' share of the heap counters, the
// one large-object counterpart of classLedger: counts and bytes, since
// large objects vary in size, with the live high-water mark in bytes.
type largeLedger struct {
	mallocs    uint64
	frees      uint64
	reqBytes   uint64
	allocBytes uint64 // usable (page-rounded) bytes allocated
	freedBytes uint64 // usable bytes freed
	peakBytes  uint64 // high-water mark of allocBytes − freedBytes
}

// largeObject records an mmap'd allocation (> MaxObjectSize), which lives
// outside the main heap behind guard pages.
type largeObject struct {
	size      int    // requested (usable) size
	mapBase   uint64 // start of the guarded mapping
	mapLength int    // total mapped length including guard pages
	gen       uint64 // GenTags: per-heap monotonic issue counter (odd, never wraps)
}

// pageIndex resolves a page number to its subregion in O(1): the
// allocator-level analog of the vmem radix table. Entry (pn - basePn)
// points at the subregion owning that page, or is nil for pages that
// belong to no small-object subregion (holes, guards, large objects).
// The table is immutable once published; growth publishes a copy, so
// Free, SizeOf, ObjectBounds, and InHeap read it lock-free.
type pageIndex struct {
	basePn uint64
	subs   []*subregion
}

// Heap is a DieHard heap. Metadata operations are safe for concurrent
// use by multiple goroutines; see Options.Concurrent for concurrent data
// access. Each simulated process still typically owns its own Heap, just
// as each DieHard replica owns its own randomized allocator.
type Heap struct {
	// The Go allocator (1.22 and later) places an object of this size on
	// a 64-byte boundary behind an 8-byte type header; the pad puts
	// classes on the next boundary, so each class's hot line is a whole
	// cache line.
	_           [56]byte
	classes     [NumClasses]sizeClass
	opts        Options
	space       *vmem.Space
	seed        uint64
	atomicStats bool // Concurrent heaps maintain stats atomically
	// stats holds the counters of rare events (failures, ignored and
	// stale frees, retries, ring and quarantine traffic, mmap and fill
	// work); its per-operation fields stay zero — StatsSnapshot derives
	// them from the class and large-object ledgers.
	stats    heap.Stats
	largeLdg largeLedger

	largeMu   sync.Mutex
	large     map[heap.Ptr]largeObject
	largeRand uint64 // packed fill stream for large objects; under largeMu
	largeGen  uint64 // GenTags issue counter for large objects; under largeMu

	idxMu   sync.Mutex // serializes pageIdx publication
	pageIdx atomic.Pointer[pageIndex]

	magMu     sync.Mutex // guards the magazine registry, not the magazines
	magazines map[*Magazine]struct{}

	remote  *freeRing  // remote-free ring (Options.RemoteRing), nil otherwise
	drainMu sync.Mutex // serializes ring drains: the single-consumer side

	// Quarantine FIFO (Options.FreeFilter): held slots keep their bitmap
	// bit and occupancy reservation until released oldest-first. The
	// mutex guards only the FIFO bookkeeping — releases run the normal
	// lock-free clear outside it. quarHead indexes the logical front;
	// the backing array is compacted when the dead prefix dominates.
	quarMu     sync.Mutex
	quarantine []heap.Ptr
	quarHead   int

	// trace is the flight-recorder ring (Options.Trace, or installed
	// later via SetTrace). Nil = disabled; every emit site guards with
	// its own nil check so the disabled hot path is one branch.
	trace *obs.Ring

	// publishHook, when non-nil, runs on a concurrent claim just before
	// its stream-publication CAS with the first slot claimed: a test seam
	// for driving the lost-CAS undo deterministically. It takes the slot
	// by value so the claim buffer never escapes.
	publishHook func(first heap.Ptr)
}

var _ heap.Allocator = (*Heap)(nil)

// addStat bumps a counter and returns its new value: atomically for
// Concurrent heaps, with a plain add otherwise — sequential trials keep
// their unsynchronized speed, concurrent heaps stay exact under -race.
func (h *Heap) addStat(p *uint64, n uint64) uint64 {
	if h.atomicStats {
		return atomic.AddUint64(p, n)
	}
	*p += n
	return *p
}

// loadStat reads a counter under the same discipline.
func (h *Heap) loadStat(p *uint64) uint64 {
	if h.atomicStats {
		return atomic.LoadUint64(p)
	}
	return *p
}

// raise lifts the high-water mark *hw to live. A negative live — frees
// counted ahead of a magazine batch whose mallocs are not yet served —
// never moves it.
func (h *Heap) raise(hw *uint64, live int64) {
	if !h.atomicStats {
		if live > int64(*hw) {
			*hw = uint64(live)
		}
		return
	}
	for {
		cur := atomic.LoadUint64(hw)
		if live <= int64(cur) || atomic.CompareAndSwapUint64(hw, cur, uint64(live)) {
			return
		}
	}
}

// serve counts n mallocs of class cl, requesting reqBytes in all, as
// handed to the program, and raises the class's live high-water mark.
// Every word it touches is on the class's hot line.
func (h *Heap) serve(cl *sizeClass, n int, reqBytes uint64) {
	l := &cl.ledger
	served := h.addStat(&l.served, uint64(n))
	h.addStat(&l.reqBytes, reqBytes)
	h.raise(&l.peak, int64(served-h.loadStat(&l.frees)))
}

// New creates a DieHard heap with the given options.
func New(opts Options) (*Heap, error) {
	return newHeap(opts, nil)
}

// newHeap builds a heap, either with its own address space (space ==
// nil) or inside a caller-provided shared space (ShardedHeap), whose
// stats mode and fillers the caller manages.
func newHeap(opts Options, space *vmem.Space) (*Heap, error) {
	o := opts.withDefaults()
	if o.M <= 1 {
		return nil, fmt.Errorf("diehard: M must exceed 1, got %v", o.M)
	}
	if o.EnableTLB && o.Concurrent {
		return nil, fmt.Errorf("diehard: TLB simulation is sequential and cannot be combined with Concurrent")
	}
	perClass := o.HeapSize / NumClasses
	perClass -= perClass % vmem.PageSize
	if perClass < vmem.PageSize {
		return nil, fmt.Errorf("diehard: heap size %d too small for %d regions", o.HeapSize, NumClasses)
	}
	h := &Heap{
		opts:        o,
		space:       space,
		atomicStats: o.Concurrent,
		large:       make(map[heap.Ptr]largeObject),
		trace:       o.Trace,
	}
	if o.RemoteRing {
		if !o.Concurrent {
			return nil, fmt.Errorf("diehard: RemoteRing is a cross-goroutine free path and requires Concurrent")
		}
		if o.OnAlloc != nil || o.OnFree != nil || o.OnStaleFree != nil {
			return nil, fmt.Errorf("diehard: RemoteRing cannot batch past per-operation observation hooks")
		}
		h.remote = newFreeRing(remoteRingSize)
	}
	if h.space == nil {
		h.space = vmem.NewSpace()
		if o.Concurrent {
			h.space.SetStatsMode(vmem.StatsShared)
		}
		if o.EnableTLB {
			h.space.EnableTLB()
		}
	}
	master := rng.NewSeeded(o.Seed)
	if o.Seed == 0 {
		master = rng.New()
	}
	h.seed = master.Seed()
	if o.RandomFill && space == nil {
		// Realize "fill the heap with random values" (§4.1) lazily:
		// every page instantiated in this replica's address space is
		// pre-filled from a stream derived from the allocator seed.
		fillRNG := master.Split()
		h.space.SetPageFiller(func(b []byte) {
			for i := 0; i+4 <= len(b); i += 4 {
				binary.LittleEndian.PutUint32(b[i:], fillRNG.Next())
			}
		})
	}

	var subs [NumClasses]*subregion
	for c := 0; c < NumClasses; c++ {
		size := MinObjectSize << c
		capSlots := perClass / size
		cl := &h.classes[c]
		cl.size = size
		cl.shift = uint(bits.TrailingZeros(uint(size)))
		cl.mask = uint64(size - 1)
		cl.capSlots = capSlots
		// Every class draws from its own stream, deterministically
		// derived from the master seed, so the probe sequence of one
		// class is independent of activity in the others — the property
		// that keeps placement deterministic per class allocation
		// sequence.
		cl.randState = master.Split().Seed()
		initial := capSlots
		if o.Adaptive {
			initial = o.AdaptiveInitial / size
			if initial < 1 {
				initial = 1
			}
			if initial > capSlots {
				initial = capSlots
			}
		}
		sub, err := h.mapSubregion(c, initial)
		if err != nil {
			return nil, err
		}
		subs[c] = sub
	}
	h.addSubregions(subs[:]...)
	h.largeRand = master.Split().Seed()
	return h, nil
}

// mapSubregion maps a new stretch of slots for class c and returns it,
// not yet visible to any reader; addSubregions publishes it.
func (h *Heap) mapSubregion(c, slots int) (*subregion, error) {
	cl := &h.classes[c]
	bytes := slots * cl.size
	if bytes < vmem.PageSize {
		bytes = vmem.PageSize
		slots = bytes / cl.size
	}
	base, err := h.space.MapGuarded(bytes)
	if err != nil {
		return nil, err
	}
	h.addStat(&h.stats.WorkUnits, heap.WorkMmap)
	sub := &subregion{
		base:  base,
		slots: slots,
		bits:  make([]uint64, (slots+63)/64),
		cl:    cl,
		shift: cl.shift,
	}
	if h.opts.GenTags {
		sub.gens = make([]uint32, slots)
	}
	return sub, nil
}

// addSubregions publishes freshly mapped subregions: it registers their
// pages in the page index, appends each to its class's region list, and
// recomputes that class's 1/M threshold. The caller holds the class
// mutex of every subregion's class (or is the constructor). Publication
// order matters for the unlocked readers: the page index is extended
// first (so any pointer handed out of a new subregion resolves), then
// the region list (so probes can land there), and the threshold is
// raised last (so no occupancy is reserved for slots that are not yet
// probe-visible).
func (h *Heap) addSubregions(subs ...*subregion) {
	h.indexSubregions(subs...)
	for _, sub := range subs {
		cl := sub.cl
		next := &classRegions{totalSlots: sub.slots}
		if cur := cl.regions.Load(); cur != nil {
			next.subs = append(next.subs, cur.subs...)
			next.totalSlots += cur.totalSlots
		}
		next.subs = append(next.subs, sub)
		if n := uint32(next.totalSlots); n > 0 {
			next.rejectBelow = -n % n
		}
		cl.regions.Store(next)
		cl.maxInUse.Store(int64(float64(next.totalSlots) / h.opts.M))
	}
}

// indexSubregions records every page of each subregion in the page
// index. The published table is immutable; this builds one copy that
// covers the current table and every new subregion, fills it and
// publishes it, serialized by idxMu so concurrent growth in different
// classes cannot lose updates. Construction indexes all classes in one
// call, so the table is allocated and filled once per heap rather than
// copied once per class. The copy spans the union of the old coverage
// and the new subregions: under concurrent adaptive growth, the class
// that mapped lower addresses may publish after the one that mapped
// higher ones, so a new subregion's end can be short of the current
// coverage. Pages mapped in between for other purposes (guards, large
// objects) stay nil.
func (h *Heap) indexSubregions(subs ...*subregion) {
	h.idxMu.Lock()
	defer h.idxMu.Unlock()
	lo, hi := subs[0].base/vmem.PageSize, subs[0].endPn()
	for _, sub := range subs[1:] {
		lo = min(lo, sub.base/vmem.PageSize)
		hi = max(hi, sub.endPn())
	}
	cur := h.pageIdx.Load()
	if cur != nil {
		lo = min(lo, cur.basePn)
		hi = max(hi, cur.basePn+uint64(len(cur.subs)))
	}
	next := &pageIndex{basePn: lo, subs: make([]*subregion, hi-lo)}
	if cur != nil {
		copy(next.subs[cur.basePn-lo:], cur.subs)
	}
	for _, sub := range subs {
		span := next.subs[sub.base/vmem.PageSize-lo : sub.endPn()-lo]
		for i := range span {
			span[i] = sub
		}
	}
	h.pageIdx.Store(next)
}

// ClassFor returns the size-class index for a request: ceil(log2(size))-3
// (§4.2), with requests below MinObjectSize rounded up to class 0.
func ClassFor(size int) int {
	if size <= MinObjectSize {
		return 0
	}
	return bits.Len(uint(size-1)) - 3
}

// ClassSize returns the object size of class c.
func ClassSize(c int) int { return MinObjectSize << c }

// Malloc allocates size bytes, placing the object uniformly at random
// within its size class region (DieHardMalloc, Figure 2 of the paper).
// Safe for concurrent use; the small-object path is a claim of one slot
// through the lock-free kernel (DESIGN.md §10), with the slot buffer on
// the caller's stack, so it allocates nothing.
func (h *Heap) Malloc(size int) (heap.Ptr, error) {
	if size < 0 {
		h.addStat(&h.stats.FailedMallocs, 1)
		return heap.Null, fmt.Errorf("diehard: negative allocation size %d", size)
	}
	if size == 0 {
		size = 1 // malloc(0) returns a distinct pointer, as in C
	}
	if h.opts.SizeAdjust != nil {
		if padded := h.opts.SizeAdjust(size); padded > size {
			size = padded
		}
	}
	if size > MaxObjectSize {
		return h.allocateLargeObject(size)
	}
	c := ClassFor(size)
	var slot [1]heap.Ptr
	if _, err := h.claim(c, slot[:]); err != nil {
		return heap.Null, err
	}
	ptr, slotSize := slot[0], ClassSize(c)
	h.serve(&h.classes[c], 1, uint64(size))
	if h.trace != nil {
		h.trace.Emit(obs.EvMalloc, ptr)
	}
	if h.opts.OnAlloc != nil {
		h.opts.OnAlloc(ptr, size, slotSize)
	}
	return ptr, nil
}

// claim is the allocator's one probe loop (Figure 2, DESIGN.md §10-§11):
// it claims up to len(out) slots of class c into out and reports how
// many (at least one). One bounded reservation takes the occupancy
// units; then slots are drawn against a register-resident copy of the
// packed class stream (rng.Step) and each is claimed as it is drawn, so
// every draw probes exactly the bitmap state its unbatched twin would
// see. On RandomFill heaps each claim's fill words are drawn from the
// same copy right after its probe draws. The whole advance is published
// with a single CAS of the stream word; if that CAS loses, a racing
// consumer advanced the stream first, so the claims are handed back and
// the claim replays from the fresh state (with backoff; losses surface
// in Stats.CASRetries). A committed claim is therefore always a
// contiguous prefix of the class stream: at one goroutine the CAS never
// loses, and a claim of k slots is bit-identical to k claims of one —
// the prefix property that lets Malloc (a claim of one) and magazine
// refills (a claim of many) share this loop.
func (h *Heap) claim(c int, out []heap.Ptr) (int, error) {
	if !h.atomicStats && !h.opts.Adaptive && !h.opts.RandomFill {
		return h.claimPlain(c, out)
	}
	cl := &h.classes[c]
	got, probes, replays := 0, 0, 0
	for {
		if got == 0 {
			var err error
			if got, err = h.reserve(c, len(out)); err != nil {
				h.addStat(&h.stats.FailedMallocs, 1)
				return 0, err
			}
		}
		// The region list is reloaded every replay so a claim spanning
		// adaptive growth sees the fresh slots. The region is at most 1/M
		// full, so the expected number of probes per slot is
		// 1/(1 - 1/M): two for M = 2 (§4.2). The probe cap guards
		// against metadata-accounting bugs, not against bad luck; it is
		// astronomically unlikely to trigger when invariants hold.
		// probes accumulates across replays: an abandoned attempt's
		// probes were real bitmap examinations, charged to Stats.
		regs := cl.regions.Load()
		n, single := uint32(regs.totalSlots), len(regs.subs) == 1
		probeCap := 64*regs.totalSlots + 64
		st0 := atomic.LoadUint64(&cl.randState)
		st := st0
		k := 0
		var err error
		for k < got && probes < probeCap {
			probes++
			// Lemire multiply-shift with rejection.
			var v uint32
			st, v = rng.Step(st)
			m := uint64(v) * uint64(n)
			for uint32(m) < regs.rejectBelow {
				st, v = rng.Step(st)
				m = uint64(v) * uint64(n)
			}
			sub, local := regs.subs[0], int(m>>32)
			if !single {
				sub, local = regs.locate(local)
			}
			if h.atomicStats {
				if !sub.casSet(local) {
					continue
				}
			} else {
				if sub.get(local) {
					continue
				}
				sub.set(local)
			}
			h.genClaim(sub, local)
			out[k] = sub.base + uint64(local)<<cl.shift
			k++
			if h.opts.RandomFill {
				// The fill words follow the claim's probe draws on the same
				// stream, and land before the claim is published.
				if st, err = h.fillRandom(st, out[k-1], cl.size); err != nil {
					break
				}
			}
		}
		if err == nil && k < got {
			err = errNoFreeSlot
		}
		if err != nil {
			// Hand back the claims and every unit they do not keep: the
			// unclaimed part of the reservation plus the released claims.
			h.addInUse(cl, -int64(got-k+h.unclaim(out[:k])))
			return 0, err
		}
		if !h.atomicStats {
			cl.randState = st
			cl.mallocs += uint64(got)
			break
		}
		if h.publishHook != nil {
			h.publishHook(out[0])
		}
		if atomic.CompareAndSwapUint64(&cl.randState, st0, st) {
			atomic.AddUint64(&cl.mallocs, uint64(got))
			break
		}
		// A racing consumer advanced the stream: these draws are no
		// longer the stream prefix, so un-claim and replay. Only the
		// released claims return to the reservation: a claim a wild free
		// stole gave its unit back with that free, and a claim that
		// retired keeps its unit, so the replay shrinks by both. A
		// reservation shrunk to nothing is taken again.
		got = h.unclaim(out[:got])
		replays++
		backoffSpin(replays, uint32(st))
	}
	if replays > 0 {
		h.addStat(&h.stats.CASRetries, uint64(replays))
	}
	h.addStat(&cl.ledger.probes, uint64(probes))
	return got, nil
}

// claimPlain is the kernel's one specialization, for a sequential,
// non-adaptive heap outside replicated mode — every class has exactly
// one subregion, nothing races, and nothing is filled. It runs claim's
// protocol fence-free: a plain bounded increment, bitmap words addressed
// directly, and the stream committed with a plain store; the draw loop
// runs register-to-register.
func (h *Heap) claimPlain(c int, out []heap.Ptr) (int, error) {
	cl := &h.classes[c]
	got, err := h.reserve(c, len(out))
	if err != nil {
		h.addStat(&h.stats.FailedMallocs, 1)
		return 0, err
	}
	regs := cl.regions.Load()
	sub := regs.subs[0]
	n, rejectBelow := uint32(sub.slots), regs.rejectBelow
	bits, gens := sub.bits, sub.gens
	st := cl.randState
	k, probes, probeCap := 0, 0, 64*sub.slots+64
	for k < got && probes < probeCap {
		probes++
		var v uint32
		st, v = rng.Step(st)
		m := uint64(v) * uint64(n)
		for uint32(m) < rejectBelow {
			st, v = rng.Step(st)
			m = uint64(v) * uint64(n)
		}
		local := int(m >> 32)
		w, bit := local>>6, uint64(1)<<(local&63)
		if bits[w]&bit != 0 {
			continue
		}
		bits[w] |= bit
		if gens != nil {
			gens[local]++ // tagged claim bump
		}
		out[k] = sub.base + uint64(local)<<sub.shift
		k++
	}
	if k < got {
		h.addInUse(cl, -int64(got-k+h.unclaim(out[:k])))
		return 0, errNoFreeSlot
	}
	cl.randState = st
	cl.mallocs += uint64(got)
	cl.ledger.probes += uint64(probes)
	return got, nil
}

// errNoFreeSlot reports a probe sequence that found no free slot below
// the fill threshold: possible only when the metadata is inconsistent.
var errNoFreeSlot error = &heap.CorruptionError{Detail: "diehard: no free slot found below fill threshold"}

// unclaim hands claimed but never-served slots back to their class:
// each is released through the ordinary free arbitration, so a slot a
// wild free stole in the meantime is skipped and a tagged slot at the
// generation ceiling retires. It returns the released count — the only
// occupancy units the caller may give back or re-use.
func (h *Heap) unclaim(slots []heap.Ptr) int {
	var t freeTally
	for _, p := range slots {
		_, sub, local := h.find(p)
		t[h.release(sub, local, 0)]++
	}
	if t[genRetireOut] > 0 {
		// Retired slots keep their bit and their occupancy unit forever;
		// they were never served, so nothing else is counted.
		h.addStat(&h.stats.Retired, uint64(t[genRetireOut]))
	}
	return t[genWin]
}

// backoffSink absorbs the spin loop below so the compiler cannot
// eliminate it; the store is atomic only to stay clean under -race.
var backoffSink atomic.Uint64

// backoffSpin delays a CAS replay loop that keeps losing: bounded
// exponential spin (capped at 64 iterations) plus jitter, yielding the
// processor once the class is severely contended. The jitter is derived
// from state the loser already holds — a consumed draw value or an
// observed counter — never from a fresh draw, so the shared per-class
// probe stream is untouched and placement stays seed-deterministic. At
// one goroutine a CAS never loses, so this path never runs and the
// sequential heaps are bit-for-bit unaffected; the first loss retries
// immediately (the common transient), and only repeat losers pay.
func backoffSpin(attempt int, jitter uint32) {
	if attempt < 2 {
		return
	}
	exp := uint(attempt)
	if exp > 6 {
		exp = 6
	}
	spins := 1<<exp + int(jitter&uint32(1<<exp-1))
	acc := uint64(0)
	for i := 0; i < spins; i++ {
		acc += uint64(i)
	}
	backoffSink.Store(acc)
	if attempt > 3 {
		// Heavily contended (or oversubscribed cores): hand the CPU to
		// the racing winner instead of spinning against it.
		runtime.Gosched()
	}
}

// reserve claims up to want units of class c occupancy (at least one)
// with one bounded CAS increment: the threshold test and the whole
// increment are one atomic step, so inUse can never overshoot maxInUse
// even mid-race. At the threshold it drains queued remote frees, then
// falls into the growth engine (the one surviving use of the class
// mutex) and retries; non-adaptive heaps fail (Figure 2, line 6).
// Sequential (non-Concurrent) heaps run the same bounded increment
// without the RMW, which their one-goroutine contract makes exact.
func (h *Heap) reserve(c, want int) (int, error) {
	cl := &h.classes[c]
	replays := 0
	for {
		cur := atomic.LoadInt64(&cl.inUse)
		if avail := cl.maxInUse.Load() - cur; avail > 0 {
			take := int64(want)
			if take > avail {
				take = avail
			}
			if !h.atomicStats {
				cl.inUse = cur + take
				return int(take), nil
			}
			if atomic.CompareAndSwapInt64(&cl.inUse, cur, cur+take) {
				if replays > 0 {
					h.addStat(&h.stats.CASRetries, uint64(replays))
				}
				return int(take), nil
			}
			replays++
			backoffSpin(replays, uint32(cur))
			continue
		}
		// At threshold: the queued remote frees may be exactly the room
		// this class needs — drain them before growing or failing (the
		// mandatory malloc-miss drain of DESIGN.md §12). Retrying is
		// productive only if the drain won frees for *this* class.
		if h.remote != nil && h.drainRemote(c) > 0 {
			continue
		}
		if !h.opts.Adaptive {
			return 0, heap.ErrOutOfMemory
		}
		if err := h.growClass(c); err != nil {
			return 0, err
		}
	}
}

// addInUse adjusts class occupancy by delta: atomically on Concurrent
// heaps, plainly on sequential ones.
func (h *Heap) addInUse(cl *sizeClass, delta int64) {
	if h.atomicStats {
		atomic.AddInt64(&cl.inUse, delta)
	} else {
		cl.inUse += delta
	}
}

// growClass doubles class c under its mutex (adaptive heaps only). The
// threshold is re-checked under the lock: if a racing grower or a free
// already made room, the grow is skipped and the caller's reservation
// loop retries.
func (h *Heap) growClass(c int) error {
	cl := &h.classes[c]
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if atomic.LoadInt64(&cl.inUse) < cl.maxInUse.Load() {
		return nil
	}
	regs := cl.regions.Load()
	if regs.totalSlots >= cl.capSlots {
		return heap.ErrOutOfMemory
	}
	grow := regs.totalSlots
	if regs.totalSlots+grow > cl.capSlots {
		grow = cl.capSlots - regs.totalSlots
	}
	sub, err := h.mapSubregion(c, grow)
	if err != nil {
		return err
	}
	h.addSubregions(sub)
	return nil
}

// fillRandom fills an allocated object with random values drawn from
// the packed stream state st (Figure 2, DieHardMalloc lines 18-20) and
// returns the advanced state. The words are staged through a stack
// buffer, so no fill allocates.
func (h *Heap) fillRandom(st uint64, ptr heap.Ptr, n int) (uint64, error) {
	var buf [512]byte
	var v uint32
	for done := 0; done < n; {
		chunk := buf[:min(n-done, len(buf))]
		for i := 0; i+4 <= len(chunk); i += 4 {
			st, v = rng.Step(st)
			binary.LittleEndian.PutUint32(chunk[i:], v)
		}
		for i := len(chunk) &^ 3; i < len(chunk); i++ {
			st, v = rng.Step(st)
			chunk[i] = byte(v)
		}
		if err := h.space.WriteBytes(ptr+uint64(done), chunk); err != nil {
			return st, err
		}
		done += len(chunk)
	}
	h.addStat(&h.stats.WorkUnits, uint64(n/8+1)*heap.WorkRandomFill)
	return st, nil
}

// allocateLargeObject serves requests above MaxObjectSize from a
// dedicated guarded mapping and records it for validity checking by Free
// (§4.1, §4.3).
func (h *Heap) allocateLargeObject(size int) (heap.Ptr, error) {
	npages := (size + vmem.PageSize - 1) / vmem.PageSize
	h.largeMu.Lock()
	base, err := h.space.MapGuarded(size)
	if err != nil {
		h.largeMu.Unlock()
		h.addStat(&h.stats.FailedMallocs, 1)
		return heap.Null, err
	}
	lo := largeObject{
		size:      size,
		mapBase:   base - vmem.PageSize,
		mapLength: (npages + 2) * vmem.PageSize,
	}
	if h.opts.GenTags {
		// Large objects carry a 64-bit monotonic generation (always odd,
		// like every issued tag): at one allocation per nanosecond the
		// counter would take centuries to wrap, so large tags need no
		// retirement scheme.
		lo.gen = h.largeGen*2 + 1
		h.largeGen++
	}
	h.large[base] = lo
	var fillErr error
	if h.opts.RandomFill {
		h.largeRand, fillErr = h.fillRandom(h.largeRand, base, size)
	}
	h.largeMu.Unlock()
	if fillErr != nil {
		return heap.Null, fillErr
	}
	h.addStat(&h.stats.WorkUnits, heap.WorkMmap)
	lg := &h.largeLdg
	h.addStat(&lg.mallocs, 1)
	h.addStat(&lg.reqBytes, uint64(size))
	alloc := h.addStat(&lg.allocBytes, uint64(npages*vmem.PageSize))
	h.raise(&lg.peakBytes, int64(alloc-h.loadStat(&lg.freedBytes)))
	if h.opts.OnAlloc != nil {
		h.opts.OnAlloc(base, size, npages*vmem.PageSize)
	}
	return base, nil
}

// Free releases an allocation (DieHardFree, Figure 2). Invalid and double
// frees are detected and silently ignored: the offset must be an exact
// multiple of the object size, and the object must currently be marked
// allocated. Free never fails. Safe for concurrent use.
func (h *Heap) Free(p heap.Ptr) error {
	_, err := h.free(heap.FatPtr{Addr: p})
	return err
}

// free is the one synchronous free body (DESIGN.md §12, §15) behind Free
// and FreeFat, and the fallback of the ring route. A thin free is an
// untagged fat free (fp.Gen == 0); a fat free arrives with its tag
// already validated at the fat entry (fatEntry). The two differ only in
// how a loser is counted (lostFree). accepted reports whether this call
// released the object, retired its slot, or diverted it into the
// quarantine.
func (h *Heap) free(fp heap.FatPtr) (accepted bool, err error) {
	p := fp.Addr
	if p == heap.Null {
		return true, nil // free(NULL) is a no-op in C
	}
	cl, sub, local := h.find(p)
	if cl == nil {
		// Large object, or nothing at all (§4.3). A fat pointer that
		// resolves to no live large object of its generation is stale by
		// construction: the freed-large-object double free lands here.
		h.largeMu.Lock()
		lo, ok := h.large[p]
		if !ok || (fp.Gen != 0 && lo.gen != fp.Gen) {
			h.largeMu.Unlock()
			h.lostFree(fp)
			return false, nil
		}
		delete(h.large, p) // delete-first: exactly one racing free wins
		h.largeMu.Unlock()
		return true, h.finishLargeFree(p, lo)
	}
	if (p-sub.base)&cl.mask != 0 {
		// Misaligned interior pointer: a spatial error, not a temporal
		// one, so even a fat free takes the plain §4.3 ignore.
		h.addStat(&h.stats.IgnoredFrees, 1)
		return false, nil
	}
	if sub.gens != nil {
		// Tagged heap (DESIGN.md §15): the generation word is the free
		// arbiter, against the fat tag or any live word for a thin free.
		// The transition runs *before* the quarantine filter so that
		// exactly one free per incarnation ever reaches the filter —
		// held slots sit bit-set with an even generation, and duplicate
		// frees lose here (so the quarantine FIFO never holds duplicates
		// on tagged heaps, and a release's bit-clear can never race a
		// reallocated slot).
		switch h.genFree(sub, local, fp.Gen) {
		case genLose:
			h.lostFree(fp)
			return false, nil
		case genRetireOut:
			h.addStat(&h.stats.Retired, 1)
			return true, nil
		}
	}
	if h.opts.FreeFilter != nil && (sub.gens != nil || sub.getAtomic(local)) && h.opts.FreeFilter(p, cl.size) {
		// Quarantine divert: the slot stays marked allocated (bit set,
		// occupancy reserved), so the probe stream cannot re-issue it.
		// On untagged heaps the liveness pre-check only filters obviously
		// dead pointers cheaply; the release's bit-clear remains the one
		// arbiter of racing frees, so a stale read here just enqueues a
		// duplicate that loses (and is counted an IgnoredFree) at release
		// time.
		h.quarantineHold(p)
		return true, nil
	}
	// Of any set of racing frees of this pointer, exactly one clears the
	// bit; the rest are double frees. On tagged heaps the clear follows
	// a won transition and cannot fail.
	if !h.freeSlot(cl, sub, local, p) {
		h.lostFree(fp)
		return false, nil
	}
	return true, nil
}

// clearSlot releases slot local's bitmap bit — by CAS on Concurrent
// heaps, plainly on sequential ones — and reports whether this call
// cleared it (false: the bit was already clear, a double free).
func (h *Heap) clearSlot(sub *subregion, local int) bool {
	if h.atomicStats {
		return sub.casClear(local)
	}
	return sub.clearPlain(local)
}

// release arbitrates one free of slot local and applies the bit-clear
// if it wins. On tagged heaps the generation transition decides —
// against the fat tag gen, or plainly when gen is 0 — and a stale or
// double free loses (genLose) while a slot at the ceiling retires; on
// untagged heaps the bit-clear itself arbitrates. Occupancy and
// statistics are the caller's, so batched paths can publish them once.
func (h *Heap) release(sub *subregion, local int, gen uint64) genOutcome {
	if sub.gens == nil {
		if h.clearSlot(sub, local) {
			return genWin
		}
		return genLose
	}
	out := h.genFree(sub, local, gen)
	if out == genWin {
		h.clearSlot(sub, local)
	}
	return out
}

// freeSlot clears the bit of slot local (at p) and, if this call
// cleared it, publishes the free: the occupancy unit, the work and free
// counters, the trace event, and the OnFree hook. false means the bit
// was already clear.
func (h *Heap) freeSlot(cl *sizeClass, sub *subregion, local int, p heap.Ptr) bool {
	// clearSlot's test, written out: this is the synchronous free's hot
	// path, and clearSlot is over the inlining budget.
	if h.atomicStats {
		if !sub.casClear(local) {
			return false
		}
	} else if !sub.clearPlain(local) {
		return false
	}
	h.addInUse(cl, -1)
	h.addStat(&cl.ledger.frees, 1)
	if h.trace != nil {
		h.trace.Emit(obs.EvFree, p)
	}
	if h.opts.OnFree != nil {
		h.opts.OnFree(p, cl.size)
	}
	return true
}

// finishLargeFree completes the free of a large object after the caller
// removed it from the table (delete-first under largeMu, so exactly one
// racing free reaches here): hook, unmap, accounting.
func (h *Heap) finishLargeFree(p heap.Ptr, lo largeObject) error {
	usable := (lo.mapLength/vmem.PageSize - 2) * vmem.PageSize
	if h.opts.OnFree != nil {
		// Fire while the guarded mapping is still live, so a
		// detection hook can audit the trailing-page slack that
		// disappears with the unmap (the large-object canary gap).
		h.opts.OnFree(p, usable)
	}
	if err := h.space.Unmap(lo.mapBase, lo.mapLength); err != nil {
		// Cannot happen unless internal state is corrupt; re-list
		// the object so accounting stays consistent and the free
		// can be retried.
		h.largeMu.Lock()
		h.large[p] = lo
		h.largeMu.Unlock()
		return err
	}
	h.addStat(&h.stats.WorkUnits, heap.WorkMmap)
	h.addStat(&h.largeLdg.frees, 1)
	h.addStat(&h.largeLdg.freedBytes, uint64(usable))
	if h.trace != nil {
		h.trace.Emit(obs.EvFree, p)
	}
	return nil
}

// quarantineHold enqueues a filtered free (Options.FreeFilter) into the
// FIFO, releasing the oldest held slot first when the cap is reached so
// the quarantine's occupancy debt stays bounded at QuarantineCap. Only
// the queue bookkeeping runs under the mutex; the eviction's bit-clear
// happens outside it on the normal lock-free path.
func (h *Heap) quarantineHold(p heap.Ptr) {
	h.addStat(&h.stats.Quarantined, 1)
	if h.trace != nil {
		h.trace.Emit(obs.EvQuarantine, p)
	}
	var evict heap.Ptr
	var evicting bool
	h.quarMu.Lock()
	if len(h.quarantine)-h.quarHead >= h.opts.QuarantineCap {
		evict = h.quarantine[h.quarHead]
		h.quarHead++
		evicting = true
	}
	h.quarantine = append(h.quarantine, p)
	if h.quarHead > 64 && h.quarHead*2 >= len(h.quarantine) {
		// Compact the consumed prefix so the backing array stays
		// proportional to the live queue, amortized O(1) per enqueue.
		n := copy(h.quarantine, h.quarantine[h.quarHead:])
		h.quarantine = h.quarantine[:n]
		h.quarHead = 0
	}
	h.quarMu.Unlock()
	if evicting {
		h.releaseHeld(evict)
	}
}

// releaseHeld performs the deferred free of a quarantined slot: the
// normal clear path of Free, minus the filter (a released slot must not
// re-enter the quarantine it just left). Exactly one release of any set
// of duplicate enqueues wins the CAS-clear; the rest count IgnoredFrees,
// preserving §4.3's double-free accounting across the deferral. OnFree
// fires here — not at divert time — so a detection layer re-arms its
// canary exactly when the slot truly rejoins free space.
func (h *Heap) releaseHeld(p heap.Ptr) bool {
	cl, sub, local := h.find(p)
	if cl == nil {
		// Unreachable for pointers the divert path resolved, kept for
		// defense in depth.
		h.addStat(&h.stats.IgnoredFrees, 1)
		return false
	}
	if !h.freeSlot(cl, sub, local, p) {
		h.addStat(&h.stats.IgnoredFrees, 1)
		return false
	}
	h.addStat(&h.stats.QuarantineOut, 1)
	return true
}

// FlushQuarantine releases every held slot oldest-first and returns how
// many actually freed (duplicates of already-released slots are ignored,
// not counted). Callers flush before retiring a FreeFilter or before
// occupancy-sensitive audits that expect quarantined slots returned to
// free space.
func (h *Heap) FlushQuarantine() int {
	released := 0
	for {
		h.quarMu.Lock()
		if h.quarHead >= len(h.quarantine) {
			h.quarantine = h.quarantine[:0]
			h.quarHead = 0
			h.quarMu.Unlock()
			return released
		}
		p := h.quarantine[h.quarHead]
		h.quarHead++
		h.quarMu.Unlock()
		if h.releaseHeld(p) {
			released++
		}
	}
}

// QuarantineLen reports the number of entries currently held in the
// quarantine FIFO (duplicate enqueues included).
func (h *Heap) QuarantineLen() int {
	h.quarMu.Lock()
	n := len(h.quarantine) - h.quarHead
	h.quarMu.Unlock()
	return n
}

// find locates the size class, subregion, and slot index containing p in
// O(1) through the page index, which is read lock-free. The slot index
// is the floor of the offset; the caller checks alignment.
func (h *Heap) find(p heap.Ptr) (*sizeClass, *subregion, int) {
	idx := h.pageIdx.Load()
	if idx == nil {
		return nil, nil, 0
	}
	pn := p/vmem.PageSize - idx.basePn
	if pn >= uint64(len(idx.subs)) { // also catches p below the heap (wraps)
		return nil, nil, 0
	}
	sub := idx.subs[pn]
	if sub == nil {
		return nil, nil, 0
	}
	off := p - sub.base
	if off >= uint64(sub.slots)<<sub.shift {
		// Tail of the subregion's last page: mapped, but no slot.
		return nil, nil, 0
	}
	return sub.cl, sub, int(off >> sub.shift)
}

// SizeOf reports the usable size of the allocated object starting exactly
// at p.
func (h *Heap) SizeOf(p heap.Ptr) (int, bool) {
	h.largeMu.Lock()
	if lo, ok := h.large[p]; ok {
		h.largeMu.Unlock()
		return lo.size, true
	}
	h.largeMu.Unlock()
	cl, sub, local := h.find(p)
	if cl == nil || (p-sub.base)&cl.mask != 0 {
		return 0, false
	}
	if !sub.getAtomic(local) {
		return 0, false
	}
	return cl.size, true
}

// ObjectBounds resolves any pointer into the heap (including interior
// pointers) to the containing allocated object's start and size. This is
// the primitive behind DieHard's checked replacements for strcpy and
// strncpy (§4.4): the available space from a destination pointer to the
// end of its object bounds the copy length.
func (h *Heap) ObjectBounds(p heap.Ptr) (start heap.Ptr, size int, ok bool) {
	h.largeMu.Lock()
	for base, lo := range h.large {
		if p >= base && p < base+uint64(lo.size) {
			h.largeMu.Unlock()
			return base, lo.size, true
		}
	}
	h.largeMu.Unlock()
	cl, sub, local := h.find(p)
	if cl == nil {
		return 0, 0, false
	}
	if !sub.getAtomic(local) {
		return 0, 0, false
	}
	return sub.base + uint64(local)<<cl.shift, cl.size, true
}

// SlotAt resolves any address inside the small-object heap to its
// containing slot: the slot's base address, its size-class object size,
// and whether it currently holds a live object. This is the O(1)
// page-index primitive behind the detection engine's neighbor lookups
// (internal/detect): evidence records name the nearest live and free
// slots around a damaged byte. ok is false for addresses outside the
// small-object subregions (holes, guards, large objects).
func (h *Heap) SlotAt(addr heap.Ptr) (base heap.Ptr, size int, live, ok bool) {
	cl, sub, local := h.find(addr)
	if cl == nil {
		return 0, 0, false, false
	}
	return sub.base + uint64(local)<<cl.shift, cl.size, sub.getAtomic(local), true
}

// FreeSlots calls fn with the base address of every currently free slot
// of class c, in ascending address order, until fn returns false. The
// class bitmaps are snapshotted under the class lock and walked outside
// it, so fn may access heap memory freely; the snapshot is a consistent
// point-in-time view. The detection engine's full-heap canary sweep is
// built on this walk.
func (h *Heap) FreeSlots(c int, fn func(p heap.Ptr) bool) {
	cl := &h.classes[c]
	cl.mu.Lock()
	type snap struct {
		base  uint64
		slots int
		bits  []uint64
	}
	// The mutex freezes the region list; bitmap words are copied with
	// atomic loads, so a sweep racing CAS claimants is consistent per
	// word (the callers that need an exact view — the detection engine —
	// are sequential anyway).
	regs := cl.regions.Load()
	snaps := make([]snap, len(regs.subs))
	for i, sub := range regs.subs {
		words := make([]uint64, len(sub.bits))
		for w := range sub.bits {
			words[w] = atomic.LoadUint64(&sub.bits[w])
		}
		snaps[i] = snap{base: sub.base, slots: sub.slots, bits: words}
	}
	shift := cl.shift
	cl.mu.Unlock()
	for _, s := range snaps {
		for i := 0; i < s.slots; i++ {
			if s.bits[i>>6]&(1<<(i&63)) == 0 {
				if !fn(s.base + uint64(i)<<shift) {
					return
				}
			}
		}
	}
}

// InHeap reports whether p lies within the small-object heap regions,
// the first test of the checked library functions (§4.4). Lock-free.
func (h *Heap) InHeap(p heap.Ptr) bool {
	cl, _, _ := h.find(p)
	return cl != nil
}

// ownsLarge reports whether p is a live large object of this heap,
// used by ShardedHeap to route frees to the owning shard.
func (h *Heap) ownsLarge(p heap.Ptr) bool {
	h.largeMu.Lock()
	_, ok := h.large[p]
	h.largeMu.Unlock()
	return ok
}

// Mem returns the simulated address space backing this heap.
func (h *Heap) Mem() *vmem.Space { return h.space }

// Stats returns a fresh snapshot of the allocator counters
// (StatsSnapshot), not a live view: re-read it to see later operations.
func (h *Heap) Stats() *heap.Stats {
	st := h.StatsSnapshot()
	return &st
}

// Name identifies the allocator in experiment reports.
func (h *Heap) Name() string {
	if h.opts.RandomFill {
		return "diehard-r"
	}
	return "diehard"
}

// Seed returns the seed of the allocator's random stream, recorded so any
// run can be reproduced exactly.
func (h *Heap) Seed() uint64 { return h.seed }

// M returns the configured heap expansion factor.
func (h *Heap) M() float64 { return h.opts.M }

// ClassSlots returns the total and maximum-usable slot counts of class c,
// exposed for the analytical validation experiments.
func (h *Heap) ClassSlots(c int) (total, maxInUse int) {
	cl := &h.classes[c]
	return cl.regions.Load().totalSlots, int(cl.maxInUse.Load())
}

// ClassInUse returns the number of live objects in class c: an atomic
// read of the class occupancy counter, cheap enough that the sharded
// front end consults it on every routed malloc.
func (h *Heap) ClassInUse(c int) int {
	return int(atomic.LoadInt64(&h.classes[c].inUse))
}

// ClassMallocs returns the cumulative allocation count of class c,
// exposed for workload-characterization experiments (e.g. verifying the
// wide size mix of the 300.twolf analog).
func (h *Heap) ClassMallocs(c int) uint64 {
	return atomic.LoadUint64(&h.classes[c].mallocs)
}

// ClassBase returns the base address of the first subregion of class c,
// exposed for tests that aim overflow writes at precise heap locations.
func (h *Heap) ClassBase(c int) heap.Ptr {
	return h.classes[c].regions.Load().subs[0].base
}

// LargeObjects returns the number of live large objects.
func (h *Heap) LargeObjects() int {
	h.largeMu.Lock()
	defer h.largeMu.Unlock()
	return len(h.large)
}

// CheckInvariants verifies the segregated metadata against itself: per-
// class live counts match bitmap population, thresholds are respected,
// subregion accounting is consistent, and every class ledger balances
// against its occupancy (served − frees == inUse, DESIGN.md §7), as the
// large-object ledger does against the large-object table. Property
// tests call this after randomized (including concurrent) workloads;
// each class is checked under its own lock. The bitmap-population ==
// inUse comparison is exact only at quiescence — every CAS winner pairs
// its bit with a counter reservation, but the two updates are not one
// atomic step — which is precisely when the stress tests call it. Every
// registered magazine is drained first (the drain barrier of DESIGN.md
// §11), then the remote-free ring (§12) — queued remote frees hold
// their bit and occupancy unit until drained, so they never break the
// popcount comparison, but draining them here restores exact ledgers
// and exact FreeSlots walks at the barrier. Like the popcount
// comparison, draining requires the magazines' owner goroutines to be
// quiescent.
func (h *Heap) CheckInvariants() error { return h.checkInvariants(0) }

// CheckInvariantsSlack is CheckInvariants with the documented §12
// allowance for UNTAGGED heaps under deliberate double-free injection:
// a double free whose second half lands after the slot was reallocated
// or magazine-pre-claimed is indistinguishable from a valid free in any
// bitmap allocator, so each such straddle can skew one class ledger by
// one against the (always exact) bitmap population. The structural
// invariants — per-class popcount == inUse, bitmap/metadata consistency
// — take NO slack; only the ledger balance tolerates a total absolute
// skew, summed over the classes and the large objects, of at most
// `slack` (callers pass their injected double-free count). Generation-tagged
// heaps never need this: the gens CAS rejects the straddling half as
// stale (DESIGN.md §15), so tagged callers use the exact barrier.
func (h *Heap) CheckInvariantsSlack(slack uint64) error { return h.checkInvariants(slack) }

func (h *Heap) checkInvariants(slack uint64) error {
	h.DrainMagazines()
	h.drainRemote(-1)
	// Ledger balance: at a post-drain barrier each class's served −
	// frees must equal its occupancy, which the structural check just
	// tied to the bitmap population — live objects plus quarantined
	// holds and retired slots, which keep their bit and were never
	// counted freed. Frees load before served, as in StatsSnapshot.
	var skew uint64
	for c := range h.classes {
		cl := &h.classes[c]
		cl.mu.Lock()
		err := cl.checkLocked(c)
		cl.mu.Unlock()
		if err != nil {
			return err
		}
		frees := h.loadStat(&cl.ledger.frees)
		served := h.loadStat(&cl.ledger.served)
		inUse := atomic.LoadInt64(&cl.inUse)
		if d := absSkew(int64(served-frees) - inUse); d > 0 {
			if skew += d; skew > slack {
				return fmt.Errorf("class %d: ledger served %d - frees %d != occupancy %d",
					c, served, frees, inUse)
			}
		}
	}
	h.largeMu.Lock()
	large := len(h.large)
	h.largeMu.Unlock()
	lg := &h.largeLdg
	frees := h.loadStat(&lg.frees)
	mallocs := h.loadStat(&lg.mallocs)
	if skew += absSkew(int64(mallocs-frees) - int64(large)); skew > slack {
		return fmt.Errorf("large objects: ledger mallocs %d - frees %d != live %d",
			mallocs, frees, large)
	}
	if h.trace != nil {
		h.trace.Emit(obs.EvBarrier, h.StatsSnapshot().LiveObjects)
	}
	return nil
}

func absSkew(d int64) uint64 {
	if d < 0 {
		return uint64(-d)
	}
	return uint64(d)
}

// SetTrace installs (or removes, with nil) the flight-recorder ring.
// Install before the heap is shared between goroutines, or at a
// quiescent point: the field itself is not synchronized, by design —
// the disabled path must stay one plain nil check.
func (h *Heap) SetTrace(r *obs.Ring) { h.trace = r }

// StatsSnapshot returns a consistent-at-quiescence copy of the
// counters (DESIGN.md §7): the rare-event counters as stored, and the
// per-operation ones derived from the class and large-object ledgers.
// Concurrent heaps load every word atomically. Each ledger's frees load
// before its mallocs, so no snapshot shows more frees than mallocs.
// PeakLiveBytes is the sum of the per-class high-water marks (each
// times its class size) and the large-object one: an upper bound on
// the true simultaneous peak.
func (h *Heap) StatsSnapshot() heap.Stats {
	var st heap.Stats
	if h.atomicStats {
		st = h.stats.SnapshotAtomic()
	} else {
		st = h.stats
	}
	for c := range h.classes {
		cl := &h.classes[c]
		l := &cl.ledger
		size := uint64(cl.size)
		frees := h.loadStat(&l.frees)
		served := h.loadStat(&l.served)
		probes := h.loadStat(&l.probes)
		st.Mallocs += served
		st.Frees += frees
		st.BytesRequested += h.loadStat(&l.reqBytes)
		st.BytesAllocated += served * size
		st.LiveBytes += (served - frees) * size
		st.PeakLiveBytes += h.loadStat(&l.peak) * size
		st.Probes += probes
		st.WorkUnits += h.loadStat(&cl.mallocs)*(heap.WorkSizeClass+heap.WorkBitmap) +
			probes*heap.WorkProbe + frees*heap.WorkBitmap
	}
	lg := &h.largeLdg
	st.Frees += h.loadStat(&lg.frees)
	st.Mallocs += h.loadStat(&lg.mallocs)
	st.BytesRequested += h.loadStat(&lg.reqBytes)
	freed := h.loadStat(&lg.freedBytes)
	alloc := h.loadStat(&lg.allocBytes)
	st.BytesAllocated += alloc
	st.LiveBytes += alloc - freed
	st.PeakLiveBytes += h.loadStat(&lg.peakBytes)
	st.LiveObjects = st.Mallocs - st.Frees
	return st
}

// largeLiveBytes is the usable bytes of this heap's live large objects,
// read from the large-object ledger: what ShardedHeap routes large
// mallocs on.
func (h *Heap) largeLiveBytes() int64 {
	freed := h.loadStat(&h.largeLdg.freedBytes)
	return int64(h.loadStat(&h.largeLdg.allocBytes) - freed)
}

// statGauges are the core.* gauges PublishMetrics registers; each reads
// its field from a fresh snapshot.
var statGauges = []struct {
	name string
	f    func(*heap.Stats) uint64
}{
	{"core.mallocs", func(st *heap.Stats) uint64 { return st.Mallocs }},
	{"core.frees", func(st *heap.Stats) uint64 { return st.Frees }},
	{"core.failed_mallocs", func(st *heap.Stats) uint64 { return st.FailedMallocs }},
	{"core.ignored_frees", func(st *heap.Stats) uint64 { return st.IgnoredFrees }},
	{"core.live_objects", func(st *heap.Stats) uint64 { return st.LiveObjects }},
	{"core.live_bytes", func(st *heap.Stats) uint64 { return st.LiveBytes }},
	{"core.peak_live_bytes", func(st *heap.Stats) uint64 { return st.PeakLiveBytes }},
	{"core.probes", func(st *heap.Stats) uint64 { return st.Probes }},
	{"core.cas_retries", func(st *heap.Stats) uint64 { return st.CASRetries }},
	{"core.remote_frees", func(st *heap.Stats) uint64 { return st.RemoteFrees }},
	{"core.remote_drains", func(st *heap.Stats) uint64 { return st.RemoteDrains }},
	{"core.quarantined", func(st *heap.Stats) uint64 { return st.Quarantined }},
	{"core.quarantine_released", func(st *heap.Stats) uint64 { return st.QuarantineOut }},
	{"core.stale_frees", func(st *heap.Stats) uint64 { return st.StaleFrees }},
	{"core.retired_slots", func(st *heap.Stats) uint64 { return st.Retired }},
}

// publishStats registers statGauges over snap in reg.
func publishStats(reg *obs.Registry, snap func() heap.Stats, labels ...obs.Label) {
	for _, g := range statGauges {
		f := g.f
		reg.Gauge(g.name, func() float64 {
			st := snap()
			return float64(f(&st))
		}, labels...)
	}
}

// PublishMetrics registers the heap's counters as gauges in reg under
// the core.* namespace. Gauges read a snapshot at scrape time, so a
// live scrape of a Concurrent heap is race-free; the usual quiescent-
// exactness contract applies to cross-counter consistency. Labels
// (e.g. shard=N) distinguish multiple heaps in one registry.
func (h *Heap) PublishMetrics(reg *obs.Registry, labels ...obs.Label) {
	if reg == nil {
		return
	}
	publishStats(reg, h.StatsSnapshot, labels...)
}

func (cl *sizeClass) checkLocked(c int) error {
	pop := 0
	slots := 0
	regs := cl.regions.Load()
	for _, sub := range regs.subs {
		slots += sub.slots
		for w := range sub.bits {
			pop += bits.OnesCount64(atomic.LoadUint64(&sub.bits[w]))
		}
		// Tagged heaps: a clear bit means the slot's generation word is
		// even (free parity) — clears only follow a won odd→even
		// transition, and claims bump back to odd before any free can
		// race. (The converse does not hold: a bit-set slot may carry an
		// even word while quarantined after a won transition, or the odd
		// retirement sentinel.) Exact at quiescence, like the popcount.
		if sub.gens != nil {
			for w := range sub.bits {
				word := atomic.LoadUint64(&sub.bits[w])
				lim := sub.slots - w*64
				if lim > 64 {
					lim = 64
				}
				for b := 0; b < lim; b++ {
					if word&(1<<uint(b)) != 0 {
						continue
					}
					if g := atomic.LoadUint32(&sub.gens[w*64+b]); g&1 != 0 {
						return fmt.Errorf("class %d: free slot %d has odd generation %#x", c, w*64+b, g)
					}
				}
			}
		}
		// Bits beyond the slot count must be zero.
		if tail := sub.slots & 63; tail != 0 {
			last := atomic.LoadUint64(&sub.bits[len(sub.bits)-1])
			if last>>uint(tail) != 0 {
				return fmt.Errorf("class %d: bitmap bits set beyond slot count", c)
			}
		}
	}
	if slots != regs.totalSlots {
		return fmt.Errorf("class %d: totalSlots %d != sum of subregions %d", c, regs.totalSlots, slots)
	}
	inUse := int(atomic.LoadInt64(&cl.inUse))
	maxInUse := int(cl.maxInUse.Load())
	if pop != inUse {
		return fmt.Errorf("class %d: inUse %d != bitmap population %d", c, inUse, pop)
	}
	if inUse > maxInUse {
		return fmt.Errorf("class %d: inUse %d exceeds threshold %d", c, inUse, maxInUse)
	}
	if regs.totalSlots > cl.capSlots {
		return fmt.Errorf("class %d: totalSlots %d exceeds cap %d", c, regs.totalSlots, cl.capSlots)
	}
	return nil
}
