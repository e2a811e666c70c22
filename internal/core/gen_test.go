package core

// Unit and race batteries for the generation-tagged tier (DESIGN.md
// §15): parity bookkeeping across every free route (synchronous,
// quarantine-diverted, magazine-flushed, remote-ring-drained), the
// deterministic stale-free rejection that closes §12's straddling-
// reallocation gap, retirement at the tag ceiling, and the
// placement-identical contract that keeps the probabilistic tier's
// golden hashes untouched. TestFatPtrLifecycleRace runs under the race
// detector in CI.

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"diehard/internal/heap"
	"diehard/internal/obs"
	"diehard/internal/rng"
)

// TestGenTagBasics pins the single-heap fat-pointer contract: the first
// claim of a slot issues generation 1 (odd = allocated), an accepted
// free bumps it even, a second free of the same fat pointer is a
// deterministic StaleFrees rejection with the OnStaleFree evidence
// callback, misaligned interior pointers keep the spatial §4.3 ignore,
// and forged tags (even, zero, oversized) never validate.
func TestGenTagBasics(t *testing.T) {
	var evAddr heap.Ptr
	var evGen uint64
	var evCount int
	h, err := New(Options{
		HeapSize: 12 << 20, Seed: 7, GenTags: true,
		OnStaleFree: func(p heap.Ptr, gen uint64) { evAddr, evGen = p, gen; evCount++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !h.GenTagged() {
		t.Fatal("GenTagged() = false on a GenTags heap")
	}
	fp, err := h.MallocFat(64)
	if err != nil {
		t.Fatal(err)
	}
	if fp.Gen != 1 {
		t.Fatalf("first claim issued generation %d; want 1", fp.Gen)
	}
	if !h.CheckGen(fp) {
		t.Fatal("CheckGen(live fat pointer) = false")
	}
	if ok, err := h.FreeFat(fp); !ok || err != nil {
		t.Fatalf("FreeFat(live) = %v, %v; want accepted", ok, err)
	}
	if g, ok := h.GenOf(fp.Addr); !ok || g != 2 {
		t.Fatalf("generation after free = %d, %v; want 2 (even = free)", g, ok)
	}
	if h.CheckGen(fp) {
		t.Fatal("CheckGen(freed fat pointer) = true: stale use undetected")
	}
	// The double free: rejected, counted, and reported as evidence.
	if ok, err := h.FreeFat(fp); ok || err != nil {
		t.Fatalf("double FreeFat = %v, %v; want rejected, nil", ok, err)
	}
	if evCount != 1 || evAddr != fp.Addr || evGen != fp.Gen {
		t.Fatalf("OnStaleFree saw (%#x, %d) ×%d; want (%#x, %d) ×1",
			evAddr, evGen, evCount, fp.Addr, fp.Gen)
	}
	if st := h.Stats(); st.StaleFrees != 1 {
		t.Fatalf("StaleFrees = %d; want 1", st.StaleFrees)
	}
	// Reallocation bumps back to odd and the new fat pointer validates.
	fp2, err := h.MallocFat(64)
	if err != nil {
		t.Fatal(err)
	}
	if fp2.Gen&1 != 1 {
		t.Fatalf("reissued generation %d is even", fp2.Gen)
	}
	// Misaligned interior pointer: spatial, not temporal — ignored.
	if ok, _ := h.FreeFat(heap.FatPtr{Addr: fp2.Addr + 3, Gen: fp2.Gen}); ok {
		t.Fatal("misaligned FreeFat accepted")
	}
	if st := h.Stats(); st.IgnoredFrees != 1 || st.StaleFrees != 1 {
		t.Fatalf("IgnoredFrees, StaleFrees = %d, %d; want 1, 1 (misalignment is not stale)",
			st.IgnoredFrees, st.StaleFrees)
	}
	// Forged tags can never have been issued: rejected before the CAS.
	for _, g := range []uint64{0, 2, 1 << 33, uint64(genRetired)} {
		if ok, _ := h.FreeFat(heap.FatPtr{Addr: fp2.Addr, Gen: g}); ok {
			t.Errorf("forged tag %#x accepted", g)
		}
	}
	if !h.CheckGen(fp2) {
		t.Fatal("live object invalidated by rejected forgeries")
	}
	// free(NULL) stays a no-op.
	if ok, err := h.FreeFat(heap.FatPtr{}); !ok || err != nil {
		t.Fatalf("FreeFat(null) = %v, %v; want true, nil", ok, err)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The fat API demands a tagged heap.
	un, err := New(Options{HeapSize: 12 << 20, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := un.MallocFat(64); err != ErrNotGenTagged {
		t.Fatalf("MallocFat on untagged heap: %v; want ErrNotGenTagged", err)
	}
	if _, err := un.FreeFat(heap.FatPtr{Addr: 1, Gen: 1}); err != ErrNotGenTagged {
		t.Fatalf("FreeFat on untagged heap: %v; want ErrNotGenTagged", err)
	}
}

// TestGenTagStaleAcrossRealloc pins the tentpole fix: a double free that
// straddles a reallocation — undetectable by the pure bitmap protocol
// (§12's tolerated skew) — is rejected deterministically, and the new
// incarnation survives it untouched.
func TestGenTagStaleAcrossRealloc(t *testing.T) {
	h, err := New(Options{HeapSize: 12 << 20, Seed: 13, GenTags: true})
	if err != nil {
		t.Fatal(err)
	}
	old, err := h.MallocFat(4096)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := h.FreeFat(old); !ok || err != nil {
		t.Fatalf("FreeFat = %v, %v", ok, err)
	}
	// Churn until random placement reissues the same slot.
	var cur heap.FatPtr
	for i := 0; ; i++ {
		if i == 100000 {
			t.Fatal("slot never reissued in 100k probes")
		}
		fp, err := h.MallocFat(4096)
		if err != nil {
			t.Fatal(err)
		}
		if fp.Addr == old.Addr {
			cur = fp
			break
		}
		if ok, err := h.FreeFat(fp); !ok || err != nil {
			t.Fatalf("churn free = %v, %v", ok, err)
		}
	}
	if cur.Gen != old.Gen+2 {
		t.Fatalf("reissued generation %d; want %d (one free + one claim past %d)",
			cur.Gen, old.Gen+2, old.Gen)
	}
	staleBefore := h.Stats().StaleFrees
	// The straddling double free: same address, dead generation.
	if ok, _ := h.FreeFat(old); ok {
		t.Fatal("stale free across reallocation accepted — the §12 gap is open")
	}
	if got := h.Stats().StaleFrees; got != staleBefore+1 {
		t.Fatalf("StaleFrees = %d; want %d", got, staleBefore+1)
	}
	if !h.CheckGen(cur) {
		t.Fatal("new incarnation invalidated by the rejected stale free")
	}
	if ok, err := h.FreeFat(cur); !ok || err != nil {
		t.Fatalf("legitimate free of the new incarnation = %v, %v", ok, err)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestGenTagQuarantine pins the unified quarantine contract: the
// generation transition runs before the FreeFilter consult, so the held
// slot sits bit-set with an even word — stale frees and stale uses
// during the hold are detected, the FIFO never holds duplicates, and
// the release is the slot's sole bit-clearer.
func TestGenTagQuarantine(t *testing.T) {
	h, err := New(Options{
		HeapSize: 12 << 20, Seed: 17, GenTags: true,
		FreeFilter: func(heap.Ptr, int) bool { return true },
	})
	if err != nil {
		t.Fatal(err)
	}
	fp, err := h.MallocFat(128)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := h.FreeFat(fp); !ok || err != nil {
		t.Fatalf("FreeFat into quarantine = %v, %v; want accepted", ok, err)
	}
	if n := h.QuarantineLen(); n != 1 {
		t.Fatalf("QuarantineLen = %d; want 1", n)
	}
	if h.CheckGen(fp) {
		t.Fatal("stale use of a quarantined slot validated")
	}
	// A second free during the hold is stale — it must NOT enqueue a
	// duplicate (the duplicate's release would race the reallocated
	// slot's bit).
	if ok, _ := h.FreeFat(fp); ok {
		t.Fatal("double free into quarantine accepted")
	}
	if n := h.QuarantineLen(); n != 1 {
		t.Fatalf("QuarantineLen = %d after rejected double; want 1 (no duplicate held)", n)
	}
	if st := h.Stats(); st.StaleFrees != 1 || st.Frees != 0 {
		t.Fatalf("StaleFrees, Frees = %d, %d during hold; want 1, 0 (free counted at release)",
			st.StaleFrees, st.Frees)
	}
	if n := h.FlushQuarantine(); n != 1 {
		t.Fatalf("FlushQuarantine released %d; want 1", n)
	}
	if st := h.Stats(); st.Frees != 1 || st.QuarantineOut != 1 {
		t.Fatalf("Frees, QuarantineOut = %d, %d after flush; want 1, 1", st.Frees, st.QuarantineOut)
	}
	if g, ok := h.GenOf(fp.Addr); !ok || g != fp.Gen+1 {
		t.Fatalf("generation after release = %d; want %d", g, fp.Gen+1)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestGenTagMagazineFlush pins the batched routes: magazine refills bump
// claims, flushed frees run the generation arbitration, and a duplicate
// free queued through the magazine loses exactly like a synchronous one.
func TestGenTagMagazineFlush(t *testing.T) {
	h, err := New(Options{HeapSize: 24 << 20, Seed: 19, Concurrent: true, GenTags: true})
	if err != nil {
		t.Fatal(err)
	}
	mag, err := h.NewMagazine()
	if err != nil {
		t.Fatal(err)
	}
	const n = 48
	ptrs := make([]heap.Ptr, n)
	for i := range ptrs {
		p, err := mag.Malloc(64)
		if err != nil {
			t.Fatal(err)
		}
		if g, ok := h.GenOf(p); !ok || g&1 != 1 {
			t.Fatalf("magazine-refilled slot %#x has generation %d; want odd (claimed)", p, g)
		}
		ptrs[i] = p
	}
	for _, p := range ptrs {
		if err := mag.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	// A duplicate queued behind the legitimate free: the flush's
	// generation arbitration must reject it.
	if err := mag.Free(ptrs[0]); err != nil {
		t.Fatal(err)
	}
	mag.Close()
	st := h.Stats()
	if st.Frees != n {
		t.Errorf("Frees = %d after flush; want %d", st.Frees, n)
	}
	if st.IgnoredFrees != 1 {
		t.Errorf("IgnoredFrees = %d; want 1 (the queued duplicate, untagged route)", st.IgnoredFrees)
	}
	if st.LiveObjects != 0 {
		t.Errorf("LiveObjects = %d; want 0", st.LiveObjects)
	}
	for _, p := range ptrs {
		if g, ok := h.GenOf(p); !ok || g&1 != 0 {
			t.Fatalf("flushed slot %#x has generation %d; want even (free)", p, g)
		}
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	popcountVsInUse(t, h)
}

// TestGenTagRemoteDrainStale pins the deferred route: a duplicate fat
// free queued in the remote ring is rejected at drain time by the same
// generation arbitration, even though both entries were queued while the
// slot was still live.
func TestGenTagRemoteDrainStale(t *testing.T) {
	h, err := New(Options{
		HeapSize: 24 << 20, Seed: 23, Concurrent: true, RemoteRing: true, GenTags: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	fp, err := h.MallocFat(256)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if ok, err := h.RemoteFreeFat(fp); !ok || err != nil {
			t.Fatalf("RemoteFreeFat #%d = %v, %v; want queued", i, ok, err)
		}
	}
	if st := h.Stats(); st.Frees != 0 || st.StaleFrees != 0 {
		t.Fatalf("verdict before drain: Frees=%d StaleFrees=%d; want deferral", st.Frees, st.StaleFrees)
	}
	if err := h.CheckInvariants(); err != nil { // barrier drains the ring
		t.Fatal(err)
	}
	st := h.Stats()
	if st.Frees != 1 || st.StaleFrees != 1 || st.LiveObjects != 0 {
		t.Fatalf("after drain: Frees=%d StaleFrees=%d Live=%d; want 1, 1, 0",
			st.Frees, st.StaleFrees, st.LiveObjects)
	}
	if st.RemoteFrees != 2 {
		t.Fatalf("RemoteFrees = %d; want 2", st.RemoteFrees)
	}
}

// TestGenTagRetirement pins the wraparound answer: a free at the tag
// ceiling retires the slot — sentinel word, bit and occupancy held
// forever, counted in Retired (not Frees) so conservation still
// balances — and no later free or use of it can ever validate.
func TestGenTagRetirement(t *testing.T) {
	h, err := New(Options{HeapSize: 12 << 20, Seed: 29, GenTags: true})
	if err != nil {
		t.Fatal(err)
	}
	fp, err := h.MallocFat(64)
	if err != nil {
		t.Fatal(err)
	}
	// Drive the slot to the ceiling without 2³¹ round trips.
	ceiling, ok := h.SetGen(fp.Addr, genRetireAt+1)
	if !ok {
		t.Fatal("SetGen refused a live tagged slot")
	}
	if ok, err := h.FreeFat(ceiling); !ok || err != nil {
		t.Fatalf("retiring free = %v, %v; want accepted", ok, err)
	}
	st := h.Stats()
	if st.Retired != 1 || st.Frees != 0 {
		t.Fatalf("Retired, Frees = %d, %d; want 1, 0 (retirement is not a recycle)",
			st.Retired, st.Frees)
	}
	if g, _ := h.GenOf(fp.Addr); g != uint64(genRetired) {
		t.Fatalf("retired word = %#x; want sentinel %#x", g, genRetired)
	}
	// Nothing validates against a retired slot: not the ceiling tag, not
	// the sentinel, not any forgery.
	for _, g := range []uint64{ceiling.Gen, uint64(genRetired), 1, uint64(genRetireAt) + 3} {
		if ok, _ := h.FreeFat(heap.FatPtr{Addr: fp.Addr, Gen: g}); ok {
			t.Errorf("free with tag %#x accepted on a retired slot", g)
		}
		if h.CheckGen(heap.FatPtr{Addr: fp.Addr, Gen: g}) {
			t.Errorf("CheckGen with tag %#x validated on a retired slot", g)
		}
	}
	// The slot keeps its occupancy unit: still one in-use in its class,
	// and the invariant walk accepts the held bit.
	if use := h.ClassInUse(ClassFor(64)); use != 1 {
		t.Fatalf("ClassInUse = %d after retirement; want 1 (unit held forever)", use)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	popcountVsInUse(t, h)
	// SetGen refuses tags the allocator could never issue.
	if _, ok := h.SetGen(fp.Addr, 4); ok {
		t.Error("SetGen accepted an even tag")
	}
	if _, ok := h.SetGen(fp.Addr, genRetired); ok {
		t.Error("SetGen accepted the retirement sentinel")
	}
}

// TestGenTagPlacementUnchanged pins the zero-perturbation contract that
// keeps the probabilistic tier's golden hashes valid: the side array is
// segregated metadata, so a tagged heap places every object at exactly
// the addresses its untagged twin does, through an interleaved
// malloc/free churn on both engines' stat modes.
func TestGenTagPlacementUnchanged(t *testing.T) {
	for _, concurrent := range []bool{false, true} {
		name := "sequential"
		if concurrent {
			name = "concurrent"
		}
		t.Run(name, func(t *testing.T) {
			opts := Options{HeapSize: 48 << 20, Seed: 77, Concurrent: concurrent}
			plain, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.GenTags = true
			tagged, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			r := rng.NewSeeded(42)
			live := make([]heap.FatPtr, 0, 512)
			for i := 0; i < 4000; i++ {
				if len(live) > 0 && r.Intn(3) == 0 {
					k := r.Intn(len(live))
					fp := live[k]
					live[k] = live[len(live)-1]
					live = live[:len(live)-1]
					if err := plain.Free(fp.Addr); err != nil {
						t.Fatal(err)
					}
					if ok, err := tagged.FreeFat(fp); !ok || err != nil {
						t.Fatalf("tagged free = %v, %v", ok, err)
					}
					continue
				}
				size := 8 << r.Intn(8)
				a, err1 := plain.Malloc(size)
				b, err2 := tagged.MallocFat(size)
				if err1 != nil || err2 != nil {
					t.Fatal(err1, err2)
				}
				if a != b.Addr {
					t.Fatalf("op %d: placement diverged %#x vs %#x with tags merely enabled",
						i, a, b.Addr)
				}
				live = append(live, b)
			}
		})
	}
}

// TestGenTagValidation pins the construction contract: tagged heaps
// build sequential, and concurrent with a remote ring.
func TestGenTagValidation(t *testing.T) {
	if _, err := New(Options{GenTags: true}); err != nil {
		t.Errorf("valid sequential GenTags heap refused: %v", err)
	}
	if _, err := New(Options{GenTags: true, Concurrent: true, RemoteRing: true}); err != nil {
		t.Errorf("valid concurrent GenTags heap refused: %v", err)
	}
}

// TestFatPtrLifecycleRace is the §15 race battery: eight goroutines
// racing malloc, legitimate frees, and stale frees of the same fat
// pointers across every route at once — synchronous FreeFat, the remote
// ring's deferred drain, magazine refill/flush churn, and quarantine
// hold/release — ending at the full barrier stack with exactly-one-
// winner asserted per fat pointer and exact global conservation. Runs
// under the race detector in CI (×3).
func TestFatPtrLifecycleRace(t *testing.T) {
	const (
		goroutines = 8
		raced      = 64 // fat pointers every goroutine races to free
		rounds     = 60
		perRound   = 16
	)
	h, err := New(Options{
		HeapSize: 96 << 20, Seed: 41, Concurrent: true, RemoteRing: true, GenTags: true,
		// Quarantine the 16-byte class: its frees divert to the FIFO and
		// release through the eviction/flush path.
		FreeFilter:    func(_ heap.Ptr, slotSize int) bool { return slotSize == 16 },
		QuarantineCap: 32,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Phase A — the winner race: every goroutine tries to FreeFat every
	// shared fat pointer; the generation CAS must elect exactly one.
	shared := make([]heap.FatPtr, raced)
	for i := range shared {
		if shared[i], err = h.MallocFat(64); err != nil {
			t.Fatal(err)
		}
	}
	winners := make([]atomic.Int32, raced)
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, fp := range shared {
				ok, err := h.FreeFat(fp)
				if err != nil {
					errs[w] = err
					return
				}
				if ok {
					winners[i].Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("phase A worker %d: %v", w, err)
		}
	}
	for i := range winners {
		if n := winners[i].Load(); n != 1 {
			t.Fatalf("fat pointer %d: %d accepted frees; want exactly one winner", i, n)
		}
	}

	// Phase B — lifecycle churn: each goroutine allocates through the
	// fat API and a magazine at once, frees its objects through rotating
	// routes, replays every fat pointer once more (a guaranteed-stale
	// free that must be rejected), and checks stale uses never validate.
	var staleAttempts, staleAccepted atomic.Uint64
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mag, err := h.NewMagazine()
			if err != nil {
				errs[w] = err
				return
			}
			defer mag.Close()
			r := rng.NewSeeded(uint64(3000 + w))
			sizes := []int{16, 64, 256, 1024}
			for round := 0; round < rounds; round++ {
				fat := make([]heap.FatPtr, 0, perRound)
				for i := 0; i < perRound; i++ {
					if i%4 == 3 {
						// Magazine route: plain pointers churn the
						// refill/flush claims alongside the fat traffic.
						p, err := mag.Malloc(sizes[r.Intn(len(sizes))])
						if err != nil {
							errs[w] = err
							return
						}
						if err := mag.Free(p); err != nil {
							errs[w] = err
							return
						}
						continue
					}
					fp, err := h.MallocFat(sizes[r.Intn(len(sizes))])
					if err != nil {
						errs[w] = err
						return
					}
					fat = append(fat, fp)
				}
				for i, fp := range fat {
					if i%3 == 0 {
						if _, err := h.RemoteFreeFat(fp); err != nil {
							errs[w] = err
							return
						}
					} else {
						if _, err := h.FreeFat(fp); err != nil {
							errs[w] = err
							return
						}
					}
				}
				// Stale replay. A tag freed synchronously is dead right
				// now — even if the slot was since reallocated, the
				// replay is mismatched — so its rejection is asserted
				// immediately. A tag handed to the ring has its verdict
				// at the owner's drain (the replay is queued behind the
				// legitimate entry and loses there); the barrier's exact
				// conservation asserts cover those.
				for i, fp := range fat {
					staleAttempts.Add(1)
					if i%3 == 0 {
						if _, err := h.RemoteFreeFat(fp); err != nil {
							errs[w] = err
							return
						}
						continue
					}
					ok, err := h.FreeFat(fp)
					if err != nil {
						errs[w] = err
						return
					}
					if ok {
						staleAccepted.Add(1)
					}
					if h.CheckGen(fp) {
						staleAccepted.Add(1) // stale use validated: also a bug
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("phase B worker %d: %v", w, err)
		}
	}

	// A replayed tag may meet its slot freed, quarantined, or already
	// reallocated by another goroutine — mismatched in every case. An
	// accepted replay (or a validated stale use) is the §12 gap reopened.
	if n := staleAccepted.Load(); n != 0 {
		t.Errorf("%d of %d stale replays accepted; want 0", n, staleAttempts.Load())
	}

	// Barrier stack: flush the quarantine, drain every ring, audit.
	h.FlushQuarantine()
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	popcountVsInUse(t, h)
	st := h.StatsSnapshot()
	if st.LiveObjects != 0 {
		t.Errorf("LiveObjects = %d after every route drained; want exactly 0 (no §12 tolerance)",
			st.LiveObjects)
	}
	if st.Mallocs != st.Frees+st.Retired {
		t.Errorf("conservation: Mallocs %d != Frees %d + Retired %d",
			st.Mallocs, st.Frees, st.Retired)
	}
	if st.StaleFrees < uint64(raced)*(goroutines-1) {
		t.Errorf("StaleFrees = %d; want at least the %d phase-A losers",
			st.StaleFrees, raced*(goroutines-1))
	}
	t.Logf("race battery: %d mallocs, %d frees, %d stale rejections (%d replayed), %d quarantined, %d retired",
		st.Mallocs, st.Frees, st.StaleFrees, staleAttempts.Load(), st.Quarantined, st.Retired)
}

// TestGenTagRandomFill runs the tagged tier on a replicated-mode heap:
// the claim bump and the fill draws share the kernel, fat frees reject
// stale tags, and the ledgers stay exact.
func TestGenTagRandomFill(t *testing.T) {
	h, err := New(Options{HeapSize: 12 << 20, Seed: 77, GenTags: true, RandomFill: true})
	if err != nil {
		t.Fatal(err)
	}
	var live []heap.FatPtr
	for i := 0; i < 200; i++ {
		fp, err := h.MallocFat(16 + i%100)
		if err != nil {
			t.Fatal(err)
		}
		if !h.CheckGen(fp) {
			t.Fatalf("fresh fat pointer %v does not check", fp)
		}
		live = append(live, fp)
	}
	for _, fp := range live[:100] {
		if ok, err := h.FreeFat(fp); !ok || err != nil {
			t.Fatalf("FreeFat(%v) = %v, %v", fp, ok, err)
		}
	}
	for _, fp := range live[:100] {
		if ok, _ := h.FreeFat(fp); ok {
			t.Fatalf("stale FreeFat(%v) accepted", fp)
		}
	}
	if st := h.Stats(); st.StaleFrees != 100 || st.LiveObjects != 100 {
		t.Errorf("StaleFrees = %d, LiveObjects = %d; want 100, 100", st.StaleFrees, st.LiveObjects)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestFatFreeUnissuedTag: a fat pointer whose tag the allocator could
// never have issued (0, or any even word) is stale on every route —
// synchronous or ring, Heap or ShardedHeap — and leaves the object
// live. The tag is validated once, at the fat entry: a ring cell
// carrying gen 0 would otherwise read as a thin free and release a
// live object.
func TestFatFreeUnissuedTag(t *testing.T) {
	type fatHeap interface {
		MallocFat(size int) (heap.FatPtr, error)
		FreeFat(fp heap.FatPtr) (bool, error)
		RemoteFreeFat(fp heap.FatPtr) (bool, error)
		CheckGen(fp heap.FatPtr) bool
		CheckInvariants() error
		StatsSnapshot() heap.Stats
	}
	for _, sharded := range []bool{false, true} {
		for _, ring := range []bool{false, true} {
			for _, remote := range []bool{false, true} {
				for _, bad := range []uint64{0, 1} { // tag 0, or fp.Gen+1 (even)
					name := fmt.Sprintf("sharded=%v/ring=%v/remote=%v/even=%v", sharded, ring, remote, bad == 1)
					t.Run(name, func(t *testing.T) {
						o := Options{HeapSize: 8 << 20, Seed: 41, GenTags: true, Concurrent: ring, RemoteRing: ring}
						var (
							h   fatHeap
							err error
						)
						if sharded {
							h, err = NewSharded(2, o)
						} else {
							h, err = New(o)
						}
						if err != nil {
							t.Fatal(err)
						}
						fp, err := h.MallocFat(48)
						if err != nil {
							t.Fatal(err)
						}
						forged := heap.FatPtr{Addr: fp.Addr}
						if bad == 1 {
							forged.Gen = fp.Gen + 1
						}
						free := h.FreeFat
						if remote {
							free = h.RemoteFreeFat
						}
						if ok, err := free(forged); ok || err != nil {
							t.Fatalf("free(%+v) = %v, %v; want rejected", forged, ok, err)
						}
						if err := h.CheckInvariants(); err != nil {
							t.Fatal(err)
						}
						if st := h.StatsSnapshot(); st.StaleFrees != 1 || st.Frees != 0 || st.LiveObjects != 1 {
							t.Fatalf("StaleFrees=%d Frees=%d Live=%d; want 1, 0, 1", st.StaleFrees, st.Frees, st.LiveObjects)
						}
						if !h.CheckGen(fp) {
							t.Fatal("object no longer live under its issued tag")
						}
						if ok, err := h.FreeFat(fp); !ok || err != nil {
							t.Fatalf("FreeFat(issued) = %v, %v; want accepted", ok, err)
						}
					})
				}
			}
		}
	}
}

// TestShardedUnownedStaleFreeEvidence: a fat free that no shard owns —
// here the second free of a large object — is reported exactly as
// Heap.FreeFat reports a stale free: counted once, OnStaleFree fired
// once, and an EvStaleFree emitted (on the router's ring).
func TestShardedUnownedStaleFreeEvidence(t *testing.T) {
	for _, remote := range []bool{false, true} {
		t.Run(fmt.Sprintf("remote=%v", remote), func(t *testing.T) {
			var hooks int
			var hookAddr heap.Ptr
			sh, err := NewSharded(2, Options{
				HeapSize: 8 << 20, Seed: 43, GenTags: true,
				OnStaleFree: func(p heap.Ptr, _ uint64) { hooks++; hookAddr = p },
			})
			if err != nil {
				t.Fatal(err)
			}
			rec := obs.NewRecorder(64)
			sh.AttachRecorder(rec, 0)
			fp, err := sh.MallocFat(MaxObjectSize + 100)
			if err != nil {
				t.Fatal(err)
			}
			free := sh.FreeFat
			if remote {
				free = sh.RemoteFreeFat
			}
			if ok, err := free(fp); !ok || err != nil {
				t.Fatalf("first free = %v, %v; want accepted", ok, err)
			}
			if ok, err := free(fp); ok || err != nil {
				t.Fatalf("second free = %v, %v; want rejected", ok, err)
			}
			if hooks != 1 || hookAddr != fp.Addr {
				t.Errorf("OnStaleFree fired %d times (last %#x); want once for %#x", hooks, hookAddr, fp.Addr)
			}
			if st := sh.StatsSnapshot(); st.StaleFrees != 1 {
				t.Errorf("StaleFrees = %d; want 1", st.StaleFrees)
			}
			var stale []obs.Event
			for _, ev := range rec.Snapshot() {
				if ev.Kind == obs.EvStaleFree.String() {
					stale = append(stale, ev)
				}
			}
			if len(stale) != 1 || stale[0].Worker != sh.Shards() || stale[0].Arg != fp.Addr {
				t.Errorf("EvStaleFree events %+v; want one on router ring %d for %#x", stale, sh.Shards(), fp.Addr)
			}
		})
	}
}

// TestShardedMallocFatUntagged pins the refusal order of the sharded fat
// malloc: on an untagged heap it returns ErrNotGenTagged before routing,
// as Heap.MallocFat does, so no slot is claimed for a pointer the caller
// never receives.
func TestShardedMallocFatUntagged(t *testing.T) {
	sh, err := NewSharded(2, Options{HeapSize: 8 << 20, Seed: 44})
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{48, MaxObjectSize + 100} {
		if _, err := sh.MallocFat(size); !errors.Is(err, ErrNotGenTagged) {
			t.Fatalf("MallocFat(%d) on an untagged heap: err = %v; want ErrNotGenTagged", size, err)
		}
	}
	if st := sh.StatsSnapshot(); st.Mallocs != 0 || st.LiveObjects != 0 {
		t.Errorf("refused MallocFat left Mallocs = %d, LiveObjects = %d; want 0, 0", st.Mallocs, st.LiveObjects)
	}
	for i := 0; i < sh.Shards(); i++ {
		if use := sh.Shard(i).ClassInUse(ClassFor(48)); use != 0 {
			t.Errorf("shard %d holds %d slots after a refused MallocFat; want 0", i, use)
		}
	}
	if err := sh.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
