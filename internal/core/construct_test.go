package core

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"diehard/internal/vmem"
)

// BenchmarkNew measures heap construction, which every apps run,
// replica restart, campaign trial and serve heap pays once: the paper's
// 384 MB M = 2 heap, and the serve benchmark's 2-shard 64 MB heap with
// Concurrent, RemoteRing and GenTags. Like perfbench, every build starts
// from a collected Go heap with the collector held off, so the timer
// sees construction itself, not a collection of the previous build.
func BenchmarkNew(b *testing.B) {
	for _, bc := range []struct {
		name  string
		build func() error
	}{
		{"384MB-M2", func() error {
			_, err := New(Options{HeapSize: 384 << 20, M: 2, Seed: 1})
			return err
		}},
		{"sharded2-64MB-gentag", func() error {
			_, err := NewSharded(2, Options{HeapSize: 64 << 20, Seed: 1, Concurrent: true, RemoteRing: true, GenTags: true})
			return err
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				runtime.GC()
				b.StartTimer()
				if err := bc.build(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestIndexSubregionsOneShot checks the page index a heap builds: on a
// plain heap (indexed once at construction), an adaptive heap after its
// classes grew (indexed again per growth) and every shard of a 3-shard
// heap (one shared space, one index per shard), find on every page of
// the index span must agree with a brute-force scan over all of the
// heap's subregions.
func TestIndexSubregionsOneShot(t *testing.T) {
	plain := testHeap(t, Options{HeapSize: 12 << 20, Seed: 21})

	adaptive := testHeap(t, Options{HeapSize: 24 << 20, Seed: 22, Adaptive: true, AdaptiveInitial: 4096})
	for _, size := range []int{8, 64, 512, 4096} {
		for i := 0; i < 64; i++ {
			if _, err := adaptive.Malloc(size); err != nil {
				t.Fatal(err)
			}
		}
	}
	grown := 0
	for c := range adaptive.classes {
		grown += len(adaptive.classes[c].regions.Load().subs) - 1
	}
	if grown == 0 {
		t.Fatal("adaptive heap did not grow; the test would not cover growth publication")
	}
	// A large object maps pages above the grown index; the next growth
	// must leave them nil.
	if _, err := adaptive.Malloc(MaxObjectSize + 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 512; i++ {
		if _, err := adaptive.Malloc(16); err != nil {
			t.Fatal(err)
		}
	}

	sh, err := NewSharded(3, Options{HeapSize: 36 << 20, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}

	heaps := map[string]*Heap{"plain": plain, "adaptive": adaptive}
	for i := 0; i < sh.Shards(); i++ {
		heaps[fmt.Sprintf("shard%d", i)] = sh.Shard(i)
	}
	for name, h := range heaps {
		var subs []*subregion
		for c := range h.classes {
			subs = append(subs, h.classes[c].regions.Load().subs...)
		}
		idx := h.pageIdx.Load()
		lo := idx.basePn * vmem.PageSize
		hi := (idx.basePn + uint64(len(idx.subs))) * vmem.PageSize
		for _, sub := range subs {
			if sub.base < lo || sub.base+uint64(sub.slots)<<sub.shift > hi {
				t.Fatalf("%s: subregion %#x outside index span [%#x, %#x)", name, sub.base, lo, hi)
			}
		}
		// Probe the first and the last byte of every page.
		for pg := lo; pg < hi; pg += vmem.PageSize {
			for _, p := range []uint64{pg, pg + vmem.PageSize - 1} {
				var want *subregion
				for _, sub := range subs {
					if p >= sub.base && p < sub.base+uint64(sub.slots)<<sub.shift {
						want = sub
					}
				}
				cl, got, slot := h.find(p)
				if got != want {
					t.Fatalf("%s: find(%#x) subregion %p, brute force %p", name, p, got, want)
				}
				if want != nil && (cl != want.cl || slot != int((p-want.base)>>want.shift)) {
					t.Fatalf("%s: find(%#x) = class %p slot %d", name, p, cl, slot)
				}
			}
		}
	}
}
