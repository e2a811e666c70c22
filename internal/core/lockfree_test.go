package core

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"diehard/internal/analysis"
	"diehard/internal/heap"
	"diehard/internal/rng"
)

// The lock-free malloc kernel's test battery (DESIGN.md §10): the CAS
// probe loop must survive contention with its segregated metadata
// exactly consistent, keep the probe-count distribution the
// randomized-placement analysis predicts, and never touch a class mutex
// on the fast path. Its single-goroutine placement is pinned by the
// goldens in golden_test.go.

// popcountVsInUse asserts, per class, that the allocation bitmap's
// population equals the atomic occupancy counter — the explicit pairing
// invariant behind every CAS winner (one bit set <=> one reservation).
func popcountVsInUse(t *testing.T, h *Heap) {
	t.Helper()
	for c := range h.classes {
		cl := &h.classes[c]
		pop := 0
		for _, sub := range cl.regions.Load().subs {
			for w := range sub.bits {
				pop += bits.OnesCount64(atomic.LoadUint64(&sub.bits[w]))
			}
		}
		if inUse := int(atomic.LoadInt64(&cl.inUse)); pop != inUse {
			t.Errorf("class %d: bitmap popcount %d != atomic inUse %d", c, pop, inUse)
		}
	}
}

// TestLockFreeMallocStress hammers the CAS fast path: several goroutines
// per size class churn malloc/free (plus the §4.3 ignore paths) against
// one lock-free heap, and the metadata must come out exactly consistent.
// Runs under -race in CI.
func TestLockFreeMallocStress(t *testing.T) {
	const workersPerClass = 4
	const rounds = 500
	classSizes := []int{8, 64, 1024}

	h, err := New(Options{HeapSize: 48 << 20, Seed: 1337, Concurrent: true})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, len(classSizes)*workersPerClass)
	for ci, size := range classSizes {
		for w := 0; w < workersPerClass; w++ {
			wg.Add(1)
			go func(id, size, seed int) {
				defer wg.Done()
				r := rng.NewSeeded(uint64(seed)*0x9E3779B9 + 7)
				live := make([]heap.Ptr, 0, 48)
				for i := 0; i < rounds; i++ {
					p, err := h.Malloc(size)
					if err != nil {
						errs[id] = err
						return
					}
					live = append(live, p)
					if len(live) > 32 {
						victim := r.Intn(len(live))
						if err := h.Free(live[victim]); err != nil {
							errs[id] = err
							return
						}
						live[victim] = live[len(live)-1]
						live = live[:len(live)-1]
					}
					if i%13 == 0 {
						// Racing double and misaligned frees must be
						// ignored without ever corrupting the bitmaps.
						_ = h.Free(p + 1)
					}
				}
				for _, p := range live {
					if err := h.Free(p); err != nil {
						errs[id] = err
						return
					}
				}
			}(ci*workersPerClass+w, size, ci*workersPerClass+w)
		}
	}
	wg.Wait()
	for id, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", id, err)
		}
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	popcountVsInUse(t, h)
	st := h.Stats()
	if st.Mallocs != uint64(len(classSizes)*workersPerClass*rounds) {
		t.Errorf("Mallocs = %d, want %d", st.Mallocs, len(classSizes)*workersPerClass*rounds)
	}
	if st.Frees != st.Mallocs {
		t.Errorf("Frees = %d != Mallocs %d after full teardown", st.Frees, st.Mallocs)
	}
}

// TestLockFreeDoubleFreeRace frees every pointer from two goroutines at
// once: exactly one CAS clear may win per pointer, so the ignored-free
// count and the occupancy must both come out exact.
func TestLockFreeDoubleFreeRace(t *testing.T) {
	h, err := New(Options{HeapSize: 12 << 20, Seed: 5, Concurrent: true})
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	ptrs := make([]heap.Ptr, n)
	for i := range ptrs {
		p, err := h.Malloc(64)
		if err != nil {
			t.Fatal(err)
		}
		ptrs[i] = p
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, p := range ptrs {
				_ = h.Free(p)
			}
		}()
	}
	wg.Wait()
	st := h.Stats()
	if st.Frees != n {
		t.Errorf("Frees = %d, want exactly %d (one winner per racing pair)", st.Frees, n)
	}
	if st.IgnoredFrees != n {
		t.Errorf("IgnoredFrees = %d, want %d (one loser per racing pair)", st.IgnoredFrees, n)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	popcountVsInUse(t, h)
}

// TestLockFreeProbeDistribution brackets the CAS probe loop's empirical
// mean probe count against the geometric expectation 1/(1 - fullness)
// (analysis.ExpectedProbes) at half-full and five-sixths-full heaps: the
// statistical witness that the lock-free rewrite preserved uniform
// randomized placement.
func TestLockFreeProbeDistribution(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical reproduction; skipped in -short mode")
	}
	const pairs = 20000
	for _, m := range []float64{2, 1.2} {
		h, err := New(Options{HeapSize: 8 << 20, M: m, Seed: 0xAB5})
		if err != nil {
			t.Fatal(err)
		}
		c := ClassFor(64)
		total, maxInUse := h.ClassSlots(c)
		ptrs := make([]heap.Ptr, maxInUse)
		for i := range ptrs {
			p, err := h.Malloc(64)
			if err != nil {
				t.Fatal(err)
			}
			ptrs[i] = p
		}
		r := rng.NewSeeded(7)
		before := h.Stats().Probes
		for i := 0; i < pairs; i++ {
			j := r.Intn(len(ptrs))
			if err := h.Free(ptrs[j]); err != nil {
				t.Fatal(err)
			}
			p, err := h.Malloc(64)
			if err != nil {
				t.Fatal(err)
			}
			ptrs[j] = p
		}
		mean := float64(h.Stats().Probes-before) / pairs
		// Each steady-state malloc probes with maxInUse-1 slots occupied.
		fullness := float64(maxInUse-1) / float64(total)
		want := analysis.ExpectedProbes(fullness)
		if math.Abs(mean-want)/want > 0.10 {
			t.Errorf("M=%v: mean probes %.3f, geometric expectation %.3f (fullness %.3f)",
				m, mean, want, fullness)
		}
	}
}

// TestLockFreeMallocAvoidsClassMutex is the no-mutex-on-the-fast-path
// acceptance check: with a class's mutex deliberately held, malloc and
// free of that class must still complete on a non-adaptive lock-free
// heap (only adaptive growth may block on the lock).
func TestLockFreeMallocAvoidsClassMutex(t *testing.T) {
	h, err := New(Options{HeapSize: 12 << 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	cl := &h.classes[ClassFor(64)]
	cl.mu.Lock()
	defer cl.mu.Unlock()
	done := make(chan error, 1)
	go func() {
		p, err := h.Malloc(64)
		if err == nil {
			err = h.Free(p)
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("malloc/free blocked on the class mutex: fast path is not lock-free")
	}
}

// TestShardedStealRouting pins the occupancy-aware router: with shard
// 0's size class driven to its 1/M threshold, routed mallocs must steal
// from the emptier shards instead of failing — the exact situation where
// round-robin routing trips one shard's threshold early (it would hand
// every len(shards)-th request to the full shard and get ErrOutOfMemory).
func TestShardedStealRouting(t *testing.T) {
	const shards = 4
	sh, err := NewSharded(shards, Options{HeapSize: shards << 20, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	c := ClassFor(64)
	_, maxInUse := sh.Shard(0).ClassSlots(c)
	for i := 0; i < maxInUse; i++ {
		if _, err := sh.Shard(0).Malloc(64); err != nil {
			t.Fatalf("filling shard 0: %v", err)
		}
	}
	// Shard 0 is at threshold: every routed malloc must now succeed by
	// stealing a slot elsewhere.
	for i := 0; i < 3*maxInUse/2; i++ {
		p, err := sh.Malloc(64)
		if err != nil {
			t.Fatalf("routed malloc %d failed with shard 0 full: %v", i, err)
		}
		if sh.Shard(0).InHeap(p) {
			t.Fatalf("routed malloc %d landed in the full shard", i)
		}
	}
	if use := sh.Shard(0).ClassInUse(c); use != maxInUse {
		t.Errorf("shard 0 occupancy changed to %d during steals", use)
	}
	if err := sh.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedStealExhaustion drives the router to genuine exhaustion:
// every shard's class capacity must be usable through sh.Malloc (the
// refused-shard retry pass), and only when all shards are at their 1/M
// thresholds may the router return out-of-memory.
func TestShardedStealExhaustion(t *testing.T) {
	const shards = 3
	sh, err := NewSharded(shards, Options{HeapSize: shards << 20, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	c := ClassFor(64)
	_, maxInUse := sh.Shard(0).ClassSlots(c)
	for i := 0; i < shards*maxInUse; i++ {
		if _, err := sh.Malloc(64); err != nil {
			t.Fatalf("routed malloc %d/%d failed before exhaustion: %v", i, shards*maxInUse, err)
		}
	}
	if _, err := sh.Malloc(64); !errors.Is(err, heap.ErrOutOfMemory) {
		t.Fatalf("past exhaustion: err = %v, want ErrOutOfMemory", err)
	}
	for i := 0; i < shards; i++ {
		if use := sh.Shard(i).ClassInUse(c); use != maxInUse {
			t.Errorf("shard %d occupancy %d != threshold %d at exhaustion", i, use, maxInUse)
		}
	}
}

// TestShardedStealBalancesSkew drives all mallocs through the router and
// checks the per-shard occupancy spread stays tight: emptiest-shard
// stealing is self-balancing, landing each routing decision on a
// least-loaded shard. With routing hysteresis a decision is reused for
// up to routeWindow requests before occupancy is re-read, so the
// max-min spread is bounded by the window, not by one slot.
func TestShardedStealBalancesSkew(t *testing.T) {
	const shards = 4
	sh, err := NewSharded(shards, Options{HeapSize: shards * 12 << 20, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	c := ClassFor(64)
	for i := 0; i < 4000; i++ {
		if _, err := sh.Malloc(64); err != nil {
			t.Fatal(err)
		}
	}
	minUse, maxUse := int(^uint(0)>>1), 0
	for i := 0; i < shards; i++ {
		use := sh.Shard(i).ClassInUse(c)
		if use < minUse {
			minUse = use
		}
		if use > maxUse {
			maxUse = use
		}
	}
	if maxUse-minUse > routeWindow {
		t.Errorf("sequential steal routing spread %d..%d; want within routeWindow (%d) slots",
			minUse, maxUse, routeWindow)
	}
}

// TestShardedRoutingHysteresis pins the hysteresis contract itself: one
// routing decision sticks for exactly routeWindow consecutive
// same-class mallocs (they all land on the chosen shard), and the next
// request re-reads occupancy and routes to the emptiest shard.
func TestShardedRoutingHysteresis(t *testing.T) {
	const shards = 4
	sh, err := NewSharded(shards, Options{HeapSize: shards * 12 << 20, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	c := ClassFor(64)
	occupancy := func() []int {
		use := make([]int, shards)
		for i := range use {
			use[i] = sh.Shard(i).ClassInUse(c)
		}
		return use
	}
	before := occupancy()
	for i := 0; i < routeWindow; i++ {
		if _, err := sh.Malloc(64); err != nil {
			t.Fatal(err)
		}
	}
	after := occupancy()
	changed := -1
	for i := range after {
		if after[i] != before[i] {
			if changed >= 0 {
				t.Fatalf("window of %d mallocs split across shards %d and %d; want one sticky shard",
					routeWindow, changed, i)
			}
			changed = i
			if after[i]-before[i] != routeWindow {
				t.Fatalf("sticky shard %d took %d mallocs; want the full window %d",
					i, after[i]-before[i], routeWindow)
			}
		}
	}
	if changed != 0 {
		t.Fatalf("first window landed on shard %d; want shard 0 (emptiest, ties to lowest index)", changed)
	}
	// The window is spent: the next malloc re-routes to an emptiest
	// shard, which shard 0 (now routeWindow ahead) cannot be.
	if _, err := sh.Malloc(64); err != nil {
		t.Fatal(err)
	}
	if use := sh.Shard(0).ClassInUse(c); use != after[0] {
		t.Errorf("expired window still routed to shard 0 (occupancy %d -> %d); want re-route to an emptier shard",
			after[0], use)
	}
}

// TestShardedRoutingDropsThresholdClass pins the mid-window reroute on
// class fullness: when the sticky shard's routed *class* reaches its
// 1/M threshold, the very next routed malloc must abandon the window
// and land elsewhere — before, only an observed out-of-memory dropped
// the window, which an adaptive shard never reports while it can still
// grow (it grew itself while emptier siblings sat idle) and which a
// non-adaptive shard only reports by burning a failed malloc.
func TestShardedRoutingDropsThresholdClass(t *testing.T) {
	const shards = 2
	c := ClassFor(64)
	for _, tc := range []struct {
		name     string
		adaptive bool
	}{
		{"adaptive-no-self-grow", true},
		{"nonadaptive-no-failed-malloc", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sh, err := NewSharded(shards, Options{HeapSize: shards * 6 << 20, Seed: 9, Adaptive: tc.adaptive})
			if err != nil {
				t.Fatal(err)
			}
			// Establish a sticky window on shard 0 (emptiest, ties low).
			if _, err := sh.Malloc(64); err != nil {
				t.Fatal(err)
			}
			if use := sh.Shard(0).ClassInUse(c); use != 1 {
				t.Fatalf("window opener landed off shard 0 (occupancy %d)", use)
			}
			// Fill shard 0's class to exactly its threshold behind the
			// router's back, mid-window.
			_, maxInUse := sh.Shard(0).ClassSlots(c)
			for sh.Shard(0).ClassInUse(c) < maxInUse {
				if _, err := sh.Shard(0).Malloc(64); err != nil {
					t.Fatalf("filling shard 0: %v", err)
				}
			}
			slotsBefore, _ := sh.Shard(0).ClassSlots(c)
			// The window has routeWindow-1 requests left, but the routed
			// class is now full: the next routed malloc must reroute.
			p, err := sh.Malloc(64)
			if err != nil {
				t.Fatalf("routed malloc at sticky-shard threshold: %v", err)
			}
			if sh.Shard(0).InHeap(p) {
				t.Fatal("routed malloc landed on the full sticky shard")
			}
			if slotsAfter, _ := sh.Shard(0).ClassSlots(c); slotsAfter != slotsBefore {
				t.Errorf("sticky shard grew itself (%d -> %d slots) instead of reroute",
					slotsBefore, slotsAfter)
			}
			if failed := sh.Stats().FailedMallocs; failed != 0 {
				t.Errorf("reroute burned %d failed mallocs; want 0", failed)
			}
			if err := sh.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestLockFreeClaimUndoStolenSlot drives the lost-publication undo with
// a claim a wild free stole in between: a claim of two slots, then —
// before its stream-publication CAS — a wild Free of the first claimed
// slot (which releases that slot's occupancy unit) and a racing stream
// advance that makes the CAS lose. The undo must report the stolen claim
// so the replay claims one slot, not two: otherwise the class holds one
// more set bit than its reservation covers. The wild free itself counts
// a Free for a slot no Malloc served, the one-object ledger skew
// CheckInvariantsSlack allows; the structural checks stay exact.
func TestLockFreeClaimUndoStolenSlot(t *testing.T) {
	for _, tagged := range []bool{false, true} {
		h, err := New(Options{HeapSize: 12 << 20, Seed: 11, Concurrent: true, GenTags: tagged})
		if err != nil {
			t.Fatal(err)
		}
		c := ClassFor(64)
		cl := &h.classes[c]
		stolen := false
		h.publishHook = func(first heap.Ptr) {
			if stolen {
				return
			}
			stolen = true
			if err := h.Free(first); err != nil {
				t.Fatal(err)
			}
			st, _ := rng.Step(atomic.LoadUint64(&cl.randState))
			atomic.StoreUint64(&cl.randState, st)
		}
		var buf [2]heap.Ptr
		got, err := h.claim(c, buf[:])
		if err != nil {
			t.Fatal(err)
		}
		if !stolen {
			t.Fatal("publish hook never ran")
		}
		if got != 1 {
			t.Errorf("tagged=%v: replay claimed %d slots, want 1 (one of two reserved units was stolen)", tagged, got)
		}
		if st := h.Stats(); st.CASRetries != 1 {
			t.Errorf("tagged=%v: CASRetries = %d, want 1", tagged, st.CASRetries)
		}
		popcountVsInUse(t, h)
		h.serve(cl, 1, 64) // serve the surviving claim, as a magazine pop would
		if err := h.CheckInvariantsSlack(1); err != nil {
			t.Fatalf("tagged=%v: %v", tagged, err)
		}
	}
}

// TestKernelZeroAllocs guards the unbatched path's allocation freedom:
// Malloc claims through the kernel with its one-slot buffer on the
// stack, so a malloc/free pair — thin on sequential and concurrent
// heaps, fat on tagged ones — allocates nothing.
func TestKernelZeroAllocs(t *testing.T) {
	pair := func(name string, op func() error) {
		t.Helper()
		var err error
		if allocs := testing.AllocsPerRun(1000, func() {
			if e := op(); e != nil {
				err = e
			}
		}); allocs != 0 {
			t.Errorf("%s: %v allocations per pair, want 0", name, allocs)
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	for _, concurrent := range []bool{false, true} {
		h, err := New(Options{HeapSize: 12 << 20, Seed: 3, Concurrent: concurrent})
		if err != nil {
			t.Fatal(err)
		}
		pair(fmt.Sprintf("Malloc/Free concurrent=%v", concurrent), func() error {
			p, err := h.Malloc(64)
			if err != nil {
				return err
			}
			return h.Free(p)
		})
		tagged, err := New(Options{HeapSize: 12 << 20, Seed: 3, Concurrent: concurrent, GenTags: true})
		if err != nil {
			t.Fatal(err)
		}
		pair(fmt.Sprintf("MallocFat/FreeFat concurrent=%v", concurrent), func() error {
			fp, err := tagged.MallocFat(64)
			if err != nil {
				return err
			}
			_, err = tagged.FreeFat(fp)
			return err
		})
	}
}
