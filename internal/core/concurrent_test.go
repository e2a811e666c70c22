package core

import (
	"sync"
	"testing"

	"diehard/internal/heap"
	"diehard/internal/rng"
	"diehard/internal/vmem"
)

// Concurrency stress tests for the goroutine-safe allocator (DESIGN.md
// §7): many goroutines malloc, access, and free against one heap, then
// the segregated metadata is verified against itself. Run under
// `go test -race` in CI.

// stressWorker churns allocations of mixed classes, writing and reading
// back a sentinel through the shared space, and frees everything it
// allocated. Returns the first error encountered.
func stressWorker(h heap.Allocator, mem *vmem.Space, worker, rounds int) error {
	r := rng.NewSeeded(uint64(worker)*0x9E3779B9 + 1)
	sizes := []int{8, 24, 64, 300, 2048, MaxObjectSize + 500}
	live := make([]heap.Ptr, 0, 64)
	for i := 0; i < rounds; i++ {
		size := sizes[r.Intn(len(sizes))]
		p, err := h.Malloc(size)
		if err != nil {
			return err
		}
		want := uint64(worker)<<32 | uint64(i)
		if err := mem.Store64(p, want); err != nil {
			return err
		}
		got, err := mem.Load64(p)
		if err != nil {
			return err
		}
		if got != want {
			return &heap.CorruptionError{Detail: "sentinel read back wrong"}
		}
		live = append(live, p)
		if len(live) > 32 {
			victim := r.Intn(len(live))
			if err := h.Free(live[victim]); err != nil {
				return err
			}
			live[victim] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		// Exercise the ignore paths concurrently too: double free and
		// wild free must never corrupt metadata (§4.3).
		if i%17 == 0 {
			if err := h.Free(p + 1); err != nil { // misaligned interior
				return err
			}
		}
	}
	for _, p := range live {
		if err := h.Free(p); err != nil {
			return err
		}
	}
	return nil
}

func TestConcurrentHeapStress(t *testing.T) {
	const workers = 8
	const rounds = 400

	// Plain heaps and replicated-mode heaps both run the CAS kernel
	// (DESIGN.md §10); RandomFill adds the in-kernel fill draws and the
	// object writes made before each claim is published.
	for _, tc := range []struct {
		name       string
		randomFill bool
	}{
		{"lockfree", false},
		{"randomfill", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h, err := New(Options{HeapSize: 48 << 20, Seed: 42, Concurrent: true, RandomFill: tc.randomFill})
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			errs := make([]error, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					errs[w] = stressWorker(h, h.Mem(), w, rounds)
				}(w)
			}
			wg.Wait()
			for w, err := range errs {
				if err != nil {
					t.Fatalf("worker %d: %v", w, err)
				}
			}
			if err := h.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			st := h.Stats()
			if st.Mallocs != workers*rounds {
				t.Errorf("Mallocs = %d, want %d", st.Mallocs, workers*rounds)
			}
			if st.Frees != st.Mallocs {
				t.Errorf("Frees = %d != Mallocs %d after full teardown", st.Frees, st.Mallocs)
			}
			if st.LiveObjects != 0 || st.LiveBytes != 0 {
				t.Errorf("live accounting nonzero after teardown: %d objects, %d bytes", st.LiveObjects, st.LiveBytes)
			}
			if st.IgnoredFrees == 0 {
				t.Error("misaligned frees were not exercised")
			}
			if h.LargeObjects() != 0 {
				t.Errorf("%d large objects leaked", h.LargeObjects())
			}
		})
	}
}

// TestConcurrentAdaptiveGrowth races mallocs in many classes of an
// adaptive heap, forcing subregion growth (and page-index republication)
// under contention.
func TestConcurrentAdaptiveGrowth(t *testing.T) {
	const workers = 6
	const rounds = 300

	h, err := New(Options{
		HeapSize: 48 << 20, Seed: 7, Adaptive: true,
		AdaptiveInitial: 8 << 10, Concurrent: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = stressWorker(h, h.Mem(), w, rounds)
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestShardedHeapStress(t *testing.T) {
	const shards = 4
	const workers = 8
	const rounds = 300

	sh, err := NewSharded(shards, Options{HeapSize: 96 << 20, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	// Half the workers allocate through a pinned shard (the scalable
	// pattern), half through the round-robin front door; everyone frees
	// through the router, so cross-shard routing is exercised.
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var alloc heap.Allocator = sh
			if w%2 == 0 {
				alloc = pinnedShard{sh: sh, shard: sh.Shard(w)}
			}
			errs[w] = stressWorker(alloc, sh.Mem(), w, rounds)
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	if err := sh.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := sh.Stats()
	if st.Mallocs != workers*rounds {
		t.Errorf("aggregate Mallocs = %d, want %d", st.Mallocs, workers*rounds)
	}
	if st.LiveObjects != 0 {
		t.Errorf("aggregate LiveObjects = %d after teardown", st.LiveObjects)
	}
}

// pinnedShard allocates from one shard but frees through the sharded
// router, the worker-pinned usage pattern.
type pinnedShard struct {
	sh    *ShardedHeap
	shard *Heap
}

func (p pinnedShard) Malloc(size int) (heap.Ptr, error) { return p.shard.Malloc(size) }
func (p pinnedShard) Free(ptr heap.Ptr) error           { return p.sh.Free(ptr) }
func (p pinnedShard) SizeOf(ptr heap.Ptr) (int, bool)   { return p.sh.SizeOf(ptr) }
func (p pinnedShard) Mem() *vmem.Space                  { return p.sh.Mem() }
func (p pinnedShard) Stats() *heap.Stats                { return p.sh.Stats() }
func (p pinnedShard) Name() string                      { return "pinned-" + p.shard.Name() }

// TestShardedRouting checks cross-shard pointer resolution: a small and
// a large object allocated in every shard route to that shard and are
// sized, bounded, and freed correctly through the router; a freed large
// pointer routes nowhere; and foreign pointers are ignored.
func TestShardedRouting(t *testing.T) {
	sh, err := NewSharded(3, Options{HeapSize: 36 << 20, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var ptrs []heap.Ptr
	for i := 0; i < sh.Shards(); i++ {
		for _, size := range []int{100, MaxObjectSize + 1} {
			p, err := sh.Shard(i).Malloc(size)
			if err != nil {
				t.Fatal(err)
			}
			if got := sh.owner(p); got != sh.Shard(i) {
				t.Errorf("size %d from shard %d: owner is %p, want %p", size, i, got, sh.Shard(i))
			}
			ptrs = append(ptrs, p)
		}
	}
	// A freed large object is unmapped and owned by nobody: its second
	// free must be ignored, not routed.
	lp, err := sh.Shard(1).Malloc(2 * MaxObjectSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := sh.Free(lp); err != nil {
		t.Fatal(err)
	}
	if got := sh.owner(lp); got != nil {
		t.Errorf("freed large pointer %#x routes to %p", lp, got)
	}
	ignored := sh.Stats().IgnoredFrees
	if err := sh.Free(lp); err != nil {
		t.Fatal(err)
	}
	if got := sh.Stats().IgnoredFrees; got != ignored+1 {
		t.Errorf("second free of a large pointer: IgnoredFrees %d -> %d, want +1", ignored, got)
	}

	for _, p := range ptrs {
		if sz, ok := sh.SizeOf(p); !ok || sz < 100 {
			t.Errorf("SizeOf(%#x) = %d, %v", p, sz, ok)
		}
		if start, _, ok := sh.ObjectBounds(p + 8); !ok || start != p {
			t.Errorf("ObjectBounds(%#x+8) = %#x, %v", p, start, ok)
		}
	}
	// Distinct addresses across shards (one shared address space).
	seen := map[heap.Ptr]bool{}
	for _, p := range ptrs {
		if seen[p] {
			t.Fatalf("duplicate address %#x across shards", p)
		}
		seen[p] = true
	}
	before := sh.Stats().Mallocs
	for _, p := range ptrs {
		if err := sh.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	if sh.Stats().Mallocs != before {
		t.Error("frees changed malloc count")
	}
	if live := sh.Stats().LiveObjects; live != 0 {
		t.Errorf("LiveObjects = %d after freeing everything", live)
	}
	// Double frees and wild pointers: ignored, never corrupting.
	for _, p := range ptrs {
		if err := sh.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := sh.Free(0xDEAD0000); err != nil {
		t.Fatal(err)
	}
	if sh.Stats().IgnoredFrees == 0 {
		t.Error("double/wild frees not counted as ignored")
	}
	if err := sh.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedRejectsSequentialModes documents the unsupported option
// combinations.
func TestShardedRejectsSequentialModes(t *testing.T) {
	if _, err := NewSharded(2, Options{RandomFill: true}); err == nil {
		t.Error("RandomFill accepted by NewSharded")
	}
	if _, err := NewSharded(2, Options{EnableTLB: true}); err == nil {
		t.Error("EnableTLB accepted by NewSharded")
	}
	if _, err := NewSharded(0, Options{}); err == nil {
		t.Error("zero shards accepted")
	}
	if _, err := New(Options{EnableTLB: true, Concurrent: true}); err == nil {
		t.Error("TLB+Concurrent accepted by New")
	}
}

// TestIndexPublicationOutOfOrder pins the regression where a page-index
// publication for a lower address range truncated coverage already
// published for a higher one — the interleaving concurrent adaptive
// growth can produce when the class that mapped lower addresses
// publishes second.
func TestIndexPublicationOutOfOrder(t *testing.T) {
	h, err := New(Options{HeapSize: 12 << 20, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	idx := h.pageIdx.Load()
	end := (idx.basePn + uint64(len(idx.subs))) * vmem.PageSize

	// Two synthetic subregions beyond current coverage, lower-address
	// one indexed after the higher-address one.
	cl := &h.classes[0]
	low := &subregion{base: end + 4*vmem.PageSize, slots: 512, cl: cl, shift: cl.shift}
	high := &subregion{base: end + 16*vmem.PageSize, slots: 512, cl: cl, shift: cl.shift}
	h.indexSubregions(high)
	h.indexSubregions(low)

	if _, sub, _ := h.find(high.base); sub != high {
		t.Fatal("late lower-address publication truncated higher-address index entries")
	}
	if _, sub, _ := h.find(low.base); sub != low {
		t.Fatal("lower-address publication not indexed")
	}
}

// TestConcurrentSeedDeterminism: a fixed seed fully determines each
// class's probe stream, so the same per-goroutine allocation sequences
// produce the same addresses regardless of cross-class interleaving.
func TestConcurrentSeedDeterminism(t *testing.T) {
	run := func() map[int][]heap.Ptr {
		h, err := New(Options{HeapSize: 24 << 20, Seed: 1234, Concurrent: true})
		if err != nil {
			t.Fatal(err)
		}
		sizes := []int{16, 128, 1024}
		out := make(map[int][]heap.Ptr)
		var mu sync.Mutex
		var wg sync.WaitGroup
		for i, size := range sizes {
			wg.Add(1)
			go func(i, size int) {
				defer wg.Done()
				var ps []heap.Ptr
				for k := 0; k < 200; k++ {
					p, err := h.Malloc(size)
					if err != nil {
						t.Error(err)
						return
					}
					ps = append(ps, p)
				}
				mu.Lock()
				out[i] = ps
				mu.Unlock()
			}(i, size)
		}
		wg.Wait()
		return out
	}
	a, b := run(), run()
	for i := range a {
		for k := range a[i] {
			if a[i][k] != b[i][k] {
				t.Fatalf("class worker %d alloc %d: %#x vs %#x — per-class streams not deterministic",
					i, k, a[i][k], b[i][k])
			}
		}
	}
}
