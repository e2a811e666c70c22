package vmem

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// checkAgainstExtents walks every page of [lo, hi) and checks that the
// page table agrees with the extents, the bookkeeping source of truth:
// Mapped, the PTE's protection, and the outcome of a load and a store —
// guard pages and holes fault with their own reasons, read-only pages
// fault on stores, and read-write pages round-trip a value.
func checkAgainstExtents(t *testing.T, s *Space, lo, hi uint64) {
	t.Helper()
	for addr := lo; addr < hi; addr += PageSize {
		i := s.findExtent(addr)
		if got := s.Mapped(addr); got != (i >= 0) {
			t.Fatalf("page %#x: Mapped = %v, extents say %v", addr, got, i >= 0)
		}
		wantFault := func(err error, kind AccessKind, reason string) {
			t.Helper()
			var f *Fault
			if !errors.As(err, &f) || f.Kind != kind || f.Reason != reason {
				t.Fatalf("page %#x: %v, want %s fault (%s)", addr, err, kind, reason)
			}
		}
		if i < 0 {
			_, err := s.Load64(addr)
			wantFault(err, AccessLoad, "unmapped address")
			wantFault(s.Store64(addr, 1), AccessStore, "unmapped address")
			continue
		}
		prot := s.extents[i].prot
		if meta := atomic.LoadUint32(&s.lookup(addr >> pageShift).meta); meta != uint32(prot)|pteMapped {
			t.Fatalf("page %#x: PTE meta %#x, extent protection %v", addr, meta, prot)
		}
		switch prot {
		case ProtNone:
			_, err := s.Load64(addr)
			wantFault(err, AccessLoad, "guard page")
			wantFault(s.Store64(addr, 1), AccessStore, "guard page")
		case ProtRead:
			if _, err := s.Load64(addr); err != nil {
				t.Fatalf("page %#x: load from read-only page: %v", addr, err)
			}
			wantFault(s.Store64(addr, 1), AccessStore, "protection violation")
		case ProtRW:
			if err := s.Store64(addr+8, addr); err != nil {
				t.Fatalf("page %#x: store: %v", addr, err)
			}
			if v, err := s.Load64(addr + 8); err != nil || v != addr {
				t.Fatalf("page %#x: load = %#x, %v", addr, v, err)
			}
		}
	}
}

// TestMapSharedLeaf maps a range that starts in the middle of an
// already-published leaf and runs on through fresh leaves, then checks
// every page against the extents: the published leaf takes atomic PTE
// stores, the fresh ones are filled before publication, and both must
// read back the same.
func TestMapSharedLeaf(t *testing.T) {
	s := NewSpace()
	first, err := s.Map(3*PageSize, ProtRW)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Protect(first+PageSize, PageSize, ProtRead); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	next := s.next
	s.mu.Unlock()
	if next>>pageShift&leafMask == 0 || s.dir[next>>pageShift>>leafBits].Load() == nil {
		t.Fatalf("next mapping at %#x does not start inside a published leaf", next)
	}
	// 5 MB plus guards spans the rest of the shared leaf and at least two
	// fresh ones.
	guarded, err := s.MapGuarded(5 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if guarded-PageSize != next {
		t.Fatalf("guarded mapping at %#x, want its guard at %#x", guarded, next)
	}
	ro, err := s.Map(700*PageSize, ProtRead)
	if err != nil {
		t.Fatal(err)
	}
	if leaves := (ro>>pageShift+700)>>leafBits - next>>pageShift>>leafBits; leaves < 3 {
		t.Fatalf("mappings span only %d leaves past the shared one", leaves)
	}
	checkAgainstExtents(t, s, first-4*PageSize, ro+704*PageSize)
}

// TestConcurrentMapExtendsLeaf races lock-free readers against Map. The
// readers keep loading and storing an earlier mapping whose leaf the
// new mappings extend into, and keep sweeping the range the new
// mappings will occupy: any page that reads as mapped must be fully
// usable. Under the race detector this checks that the plain fill of a
// fresh leaf is ordered by its publication and that PTEs in a
// published leaf are only written atomically. Each sweep first reads
// Mapped for every page and only then touches the mapped ones, because
// a first touch takes the space mutex and would order the reader after
// the whole Map; the writer waits for every reader to complete a sweep
// between mappings, so each mapping is first seen by a Mapped read.
func TestConcurrentMapExtendsLeaf(t *testing.T) {
	s := NewSpace()
	s.SetStatsMode(StatsShared)
	const readers = 4
	base, err := s.Map(readers*PageSize, ProtRW)
	if err != nil {
		t.Fatal(err)
	}
	// The writer's mappings, in pages; each is followed by a one-page
	// hole. 517 pages is more than a whole leaf.
	sizes := []uint64{1, 3, 64, 200, 517, 1, 3, 64, 200, 517, 1, 3, 64, 200, 517}
	if testing.Short() {
		sizes = sizes[:10]
	}
	start := base + (readers+1)*PageSize
	end := start
	for _, n := range sizes {
		end += (n + 1) * PageSize
	}

	var (
		sweeps [readers]atomic.Int64
		failed atomic.Bool
		stop   = make(chan struct{})
		errs   = make(chan error, readers)
		wg     sync.WaitGroup
	)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r uint64) {
			defer wg.Done()
			fail := func(err error) {
				failed.Store(true)
				errs <- err
			}
			own := base + r*PageSize
			off := r * 8 // each reader owns one word of every page
			mapped := make([]bool, (end-start)/PageSize)
			for i := uint64(0); ; i++ {
				select {
				case <-stop:
					errs <- nil
					return
				default:
				}
				if err := s.Store64(own, i); err != nil {
					fail(err)
					return
				}
				if v, err := s.Load64(own); err != nil || v != i {
					fail(fmt.Errorf("reader %d: earlier mapping read %d, %v; want %d", r, v, err, i))
					return
				}
				for k := range mapped {
					mapped[k] = s.Mapped(start + uint64(k)*PageSize)
				}
				for k, ok := range mapped {
					if !ok {
						continue
					}
					addr := start + uint64(k)*PageSize
					if err := s.Store64(addr+off, addr^i); err != nil {
						fail(fmt.Errorf("reader %d: mapped page %#x: %w", r, addr, err))
						return
					}
					if v, err := s.Load64(addr + off); err != nil || v != addr^i {
						fail(fmt.Errorf("reader %d: mapped page %#x read %#x, %v", r, addr, v, err))
						return
					}
				}
				sweeps[r].Add(1)
			}
		}(uint64(r))
	}

	at := start
	for _, n := range sizes {
		var before [readers]int64
		for r := range sweeps {
			before[r] = sweeps[r].Load()
		}
		got, err := s.Map(int(n*PageSize), ProtRW)
		if err != nil {
			t.Fatal(err)
		}
		if got != at {
			t.Fatalf("mapping at %#x, want %#x", got, at)
		}
		at += (n + 1) * PageSize
		// Two completed sweeps guarantee one that began after the Map.
		for r := 0; r < readers && !failed.Load(); {
			if sweeps[r].Load() >= before[r]+2 {
				r++
			} else {
				runtime.Gosched()
			}
		}
	}
	close(stop)
	wg.Wait()
	for r := 0; r < readers; r++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	checkAgainstExtents(t, s, base, end+PageSize)
}

// BenchmarkMap measures mapping cost: a 384 MB guarded mapping (the
// size of the paper's heap, split into twelve class regions by the
// allocator) into a fresh space, where every leaf is filled before it is
// published, and 1 MB mappings that each start inside the leaf the
// previous one published, which takes the atomic per-PTE path there.
func BenchmarkMap(b *testing.B) {
	b.Run("guarded-384MB-fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s := NewSpace()
			b.StartTimer()
			if _, err := s.MapGuarded(384 << 20); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("1MB-shared-leaf", func(b *testing.B) {
		b.ReportAllocs()
		var s *Space
		for i := 0; i < b.N; i++ {
			// 4096 mappings use 4 GB of the 64 GB address space.
			if i%4096 == 0 {
				b.StopTimer()
				s = NewSpace()
				if _, err := s.Map(PageSize, ProtRW); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			if _, err := s.Map(1<<20, ProtRW); err != nil {
				b.Fatal(err)
			}
		}
	})
}
