package core

import (
	"encoding/binary"
	"hash/fnv"
	"sort"
	"testing"

	"diehard/internal/heap"
	"diehard/internal/rng"
)

// Placement and content goldens for the allocation kernel. Each hash was
// recorded when the heap still carried a second, per-class-mutex malloc
// engine, and both engines produced it: the plain and adaptive placement
// streams, the snapshot of a store-and-free program, and the
// replicated-mode (RandomFill) snapshots, whose fill bytes were drawn
// under the class lock. A change that moves any object, or any fill
// byte, breaks them.

// placementDigest runs a mixed-size malloc/free program — small classes,
// frees of random victims, large objects, and (adaptive) region growth —
// and hashes every address it is handed, in order.
func placementDigest(t *testing.T, o Options) uint64 {
	t.Helper()
	h, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	f := fnv.New64a()
	var w [8]byte
	r := rng.NewSeeded(99)
	sizes := []int{8, 24, 64, 300, 2048, MaxObjectSize + 100}
	live := make([]heap.Ptr, 0, 512)
	for i := 0; i < 3000; i++ {
		p, err := h.Malloc(sizes[r.Intn(len(sizes))])
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint64(w[:], p)
		f.Write(w[:])
		live = append(live, p)
		if len(live) > 400 {
			victim := r.Intn(len(live))
			if err := h.Free(live[victim]); err != nil {
				t.Fatal(err)
			}
			live[victim] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return f.Sum64()
}

// snapshotDigest runs a store-and-free program (every third iteration
// frees the oldest object; with large set, every 50th allocation is a
// large object) and hashes the resulting heap snapshot in address
// order: placement plus the full contents of every live object.
func snapshotDigest(t *testing.T, o Options, large bool) uint64 {
	t.Helper()
	h, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	live := make([]heap.Ptr, 0, 128)
	for i := 0; i < 600; i++ {
		size := 16 + i%200
		if large && i%50 == 7 {
			size = MaxObjectSize + 100 + i
		}
		p, err := h.Malloc(size)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Mem().Store64(p, uint64(i)); err != nil {
			t.Fatal(err)
		}
		live = append(live, p)
		if i%3 == 0 && len(live) > 1 {
			if err := h.Free(live[0]); err != nil {
				t.Fatal(err)
			}
			live = live[1:]
		}
	}
	snap, err := h.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return digestSnapshot(snap)
}

// digestSnapshot hashes a snapshot in address order (large objects come
// out of a map, so the raw order is not deterministic).
func digestSnapshot(snap []ObjectRecord) uint64 {
	sort.Slice(snap, func(i, j int) bool { return snap[i].Ptr < snap[j].Ptr })
	f := fnv.New64a()
	var w [8]byte
	for _, r := range snap {
		for _, v := range []uint64{uint64(int64(r.Class)), uint64(r.Slot), r.Ptr, uint64(r.Size), r.Hash} {
			binary.LittleEndian.PutUint64(w[:], v)
			f.Write(w[:])
		}
	}
	return f.Sum64()
}

// TestPlacementGolden pins single-goroutine placement on plain and
// adaptive heaps: mixed sizes, frees, large objects, and region growth.
func TestPlacementGolden(t *testing.T) {
	for _, tc := range []struct {
		name     string
		adaptive bool
		want     uint64
	}{
		{"plain", false, 0x7704a22958f1e244},
		{"adaptive", true, 0xf3f40485abfea435},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := placementDigest(t, Options{
				HeapSize: 16 << 20, Seed: 0xD1FF,
				Adaptive: tc.adaptive, AdaptiveInitial: 16 << 10,
			})
			if got != tc.want {
				t.Fatalf("placement digest %#x, golden %#x", got, tc.want)
			}
		})
	}
}

// TestSnapshotGolden pins placement plus live contents: a plain heap,
// where contents are what the program stored over zero memory, and
// replicated-mode heaps, where every byte the program did not store is
// a fill value drawn from the class stream (or the large-object stream)
// between probe sequences.
func TestSnapshotGolden(t *testing.T) {
	for _, tc := range []struct {
		name  string
		opts  Options
		large bool
		want  uint64
	}{
		{"plain", Options{HeapSize: 12 << 20, Seed: 0xFEED}, false, 0x50c320e66f6c5718},
		{"randomfill", Options{HeapSize: 12 << 20, Seed: 0xFEED, RandomFill: true}, true, 0x83a8276a90947233},
		{"randomfill-adaptive", Options{HeapSize: 12 << 20, Seed: 0xFEED, RandomFill: true,
			Adaptive: true, AdaptiveInitial: 16 << 10}, true, 0x7bf6870e0d132987},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := snapshotDigest(t, tc.opts, tc.large); got != tc.want {
				t.Fatalf("snapshot digest %#x, golden %#x", got, tc.want)
			}
		})
	}
}
