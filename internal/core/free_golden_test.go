package core

import (
	"bufio"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"diehard/internal/heap"
)

// Free-outcome golden: every free entry point (Free, FreeFat,
// RemoteFree, RemoteFreeFat) against every pointer kind the §4.3/§15
// arbitration distinguishes, on a sequential Heap, a Concurrent
// RemoteRing Heap and a 2-shard ShardedHeap, each untagged and tagged.
// A row records what the caller sees (accepted, err), the Stats delta
// after the CheckInvariants barrier (so ring-deferred verdicts land),
// and the observation hooks that fired. The expected rows live in
// testdata/free_outcomes.golden; a mismatch prints every differing row.

// freeTarget is the surface shared by Heap and ShardedHeap that the
// golden drives.
type freeTarget interface {
	Malloc(size int) (heap.Ptr, error)
	MallocFat(size int) (heap.FatPtr, error)
	Free(p heap.Ptr) error
	FreeFat(fp heap.FatPtr) (bool, error)
	RemoteFree(p heap.Ptr) error
	RemoteFreeFat(fp heap.FatPtr) (bool, error)
	CheckInvariants() error
	StatsSnapshot() heap.Stats
}

// freeHooks counts observation-hook calls on a golden heap.
type freeHooks struct{ free, stale, filter int }

var freeGoldenHeaps = []string{"seq", "ring", "sharded"}

var freeGoldenEntries = []string{"Free", "FreeFat", "RemoteFree", "RemoteFreeFat"}

var freeGoldenKinds = []string{
	"null", "live", "double", "stale-realloc", "misaligned", "foreign",
	"large-live", "large-freed", "gen0", "gen-even", "quarantine",
}

// newFreeTarget builds one golden heap. Ring heaps cannot carry
// observation hooks, so their hook columns stay zero.
func newFreeTarget(t *testing.T, kind string, tagged, filter bool, hk *freeHooks) freeTarget {
	t.Helper()
	o := Options{HeapSize: 4 << 20, Seed: 0x5EED, GenTags: tagged}
	if kind != "ring" {
		o.OnFree = func(heap.Ptr, int) { hk.free++ }
		o.OnStaleFree = func(heap.Ptr, uint64) { hk.stale++ }
	}
	if filter {
		o.FreeFilter = func(heap.Ptr, int) bool { hk.filter++; return true }
	}
	var (
		ft  freeTarget
		err error
	)
	switch kind {
	case "seq":
		ft, err = New(o)
	case "ring":
		o.Concurrent, o.RemoteRing = true, true
		ft, err = New(o)
	case "sharded":
		o.HeapSize = 8 << 20
		ft, err = NewSharded(2, o)
	}
	if err != nil {
		t.Fatal(err)
	}
	return ft
}

// freeGoldenRow runs one measured free and formats its row.
func freeGoldenRow(t *testing.T, heapKind string, tagged bool, entry, kind string) string {
	t.Helper()
	var hk freeHooks
	h := newFreeTarget(t, heapKind, tagged, kind == "quarantine", &hk)
	alloc := func(size int) heap.FatPtr {
		if tagged {
			fp, err := h.MallocFat(size)
			if err != nil {
				t.Fatal(err)
			}
			return fp
		}
		p, err := h.Malloc(size)
		if err != nil {
			t.Fatal(err)
		}
		return heap.FatPtr{Addr: p}
	}
	release := func(fp heap.FatPtr) {
		var err error
		if tagged {
			_, err = h.FreeFat(fp)
		} else {
			err = h.Free(fp.Addr)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	var fp heap.FatPtr
	switch kind {
	case "null":
	case "live", "quarantine":
		fp = alloc(48)
	case "double":
		fp = alloc(48)
		release(fp)
	case "stale-realloc":
		// Free, then reallocate until the probe stream hands the same
		// slot out again: fp's tag is one incarnation old.
		fp = alloc(4096)
		release(fp)
		for i := 0; ; i++ {
			if i == 100000 {
				t.Fatal("slot never reallocated")
			}
			q := alloc(4096)
			if q.Addr == fp.Addr {
				break
			}
			release(q)
		}
	case "misaligned":
		fp = alloc(48)
		fp.Addr += 8
	case "foreign":
		fp = heap.FatPtr{Addr: 0x1000, Gen: 1}
	case "large-live":
		fp = alloc(MaxObjectSize + 100)
	case "large-freed":
		fp = alloc(MaxObjectSize + 100)
		release(fp)
	case "gen0":
		fp = alloc(48)
		fp.Gen = 0
	case "gen-even":
		fp = alloc(48)
		fp.Gen++
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	before := h.StatsSnapshot()
	hk = freeHooks{}
	acc, err := "-", error(nil)
	switch entry {
	case "Free":
		err = h.Free(fp.Addr)
	case "RemoteFree":
		err = h.RemoteFree(fp.Addr)
	case "FreeFat", "RemoteFreeFat":
		var ok bool
		if entry == "FreeFat" {
			ok, err = h.FreeFat(fp)
		} else {
			ok, err = h.RemoteFreeFat(fp)
		}
		acc = fmt.Sprint(ok)
	}
	inv := h.CheckInvariants()
	after := h.StatsSnapshot()
	tag := "untagged"
	if tagged {
		tag = "tagged"
	}
	return fmt.Sprintf("%s/%s/%s/%s acc=%s err=%v inv=%v d={%s} hooks=%d/%d/%d",
		heapKind, tag, entry, kind, acc, err, inv, statsDelta(before, after), hk.free, hk.stale, hk.filter)
}

// statsDelta lists the nonzero per-field differences after - before.
func statsDelta(before, after heap.Stats) string {
	b, a := reflect.ValueOf(before), reflect.ValueOf(after)
	var parts []string
	for i := 0; i < a.NumField(); i++ {
		if d := int64(a.Field(i).Uint() - b.Field(i).Uint()); d != 0 {
			parts = append(parts, fmt.Sprintf("%s:%+d", a.Type().Field(i).Name, d))
		}
	}
	return strings.Join(parts, " ")
}

// freeGoldenRows produces every row in golden-file order.
func freeGoldenRows(t *testing.T) []string {
	var rows []string
	for _, hk := range freeGoldenHeaps {
		for _, tagged := range []bool{false, true} {
			for _, entry := range freeGoldenEntries {
				for _, kind := range freeGoldenKinds {
					rows = append(rows, freeGoldenRow(t, hk, tagged, entry, kind))
				}
			}
		}
	}
	return rows
}

// TestFreeOutcomeGolden pins the verdict of every free entry point on
// every pointer kind. Rows are columns: heap/tagging/entry/kind,
// accepted ("-" for the error-only thin entries), err, the post-barrier
// CheckInvariants result, the Stats delta, and OnFree/OnStaleFree/
// FreeFilter call counts.
func TestFreeOutcomeGolden(t *testing.T) {
	f, err := os.Open("testdata/free_outcomes.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	got := freeGoldenRows(t)
	if len(got) != len(want) {
		t.Fatalf("%d rows, golden has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("row %d:\n got  %s\n want %s", i, got[i], want[i])
		}
	}
}
