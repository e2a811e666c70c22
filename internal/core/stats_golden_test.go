package core

import (
	"bufio"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"diehard/internal/heap"
	"diehard/internal/rng"
)

// Stats golden: the full heap.Stats after each phase of one fixed
// program — magazine traffic, mixed-size unbatched mallocs and frees
// with large objects and ring frees, double, wild and stale frees, a
// quarantined class, and the CheckInvariants barrier — on a sequential
// Heap, a Concurrent RemoteRing Heap and a 2-shard ShardedHeap, each
// untagged and tagged. The program runs on one goroutine, so every
// counter is deterministic. The expected rows live in
// testdata/stats.golden; a mismatch prints every differing row.

// statsTarget is the surface shared by Heap and ShardedHeap that the
// stats golden drives.
type statsTarget interface {
	freeTarget
	Stats() *heap.Stats
	NewMagazine() (*Magazine, error)
	FlushQuarantine() int
}

var statsGoldenSizes = []int{8, 24, 48, 100, 300, 1000, 4000}

// statsGoldenClass is the quarantined class: every synchronous free of
// a 128-byte slot is diverted into the FIFO.
const statsGoldenClass = 128

func newStatsTarget(t *testing.T, kind string, tagged bool) statsTarget {
	t.Helper()
	o := Options{
		HeapSize: 32 << 20, Seed: 0x57A75, GenTags: tagged, QuarantineCap: 8,
		FreeFilter: func(_ heap.Ptr, slot int) bool { return slot == statsGoldenClass },
	}
	var (
		st  statsTarget
		err error
	)
	switch kind {
	case "seq":
		st, err = New(o)
	case "ring":
		o.Concurrent, o.RemoteRing = true, true
		st, err = New(o)
	case "sharded":
		o.HeapSize = 64 << 20
		st, err = NewSharded(2, o)
	}
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// formatStats lists every Stats field as name=value.
func formatStats(st heap.Stats) string {
	v := reflect.ValueOf(st)
	parts := make([]string, v.NumField())
	for i := range parts {
		parts[i] = fmt.Sprintf("%s=%d", v.Type().Field(i).Name, v.Field(i).Uint())
	}
	return strings.Join(parts, " ")
}

// statsGoldenRows runs the program on one heap and returns a row per
// phase.
func statsGoldenRows(t *testing.T, kind string, tagged bool) []string {
	t.Helper()
	h := newStatsTarget(t, kind, tagged)
	tag := "untagged"
	if tagged {
		tag = "tagged"
	}
	var rows []string
	row := func(phase string, inv error) {
		st := h.StatsSnapshot()
		if got := *h.Stats(); got != st {
			t.Fatalf("%s/%s/%s: Stats() %+v != StatsSnapshot() %+v", kind, tag, phase, got, st)
		}
		rows = append(rows, fmt.Sprintf("%s/%s/%s inv=%v %s", kind, tag, phase, inv, formatStats(st)))
	}
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
	release := func(fp heap.FatPtr, remote bool) {
		var err error
		switch {
		case tagged && remote:
			_, err = h.RemoteFreeFat(fp)
		case tagged:
			_, err = h.FreeFat(fp)
		case remote:
			err = h.RemoteFree(fp.Addr)
		default:
			err = h.Free(fp.Addr)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	r := rng.NewSeeded(0x60D)

	// Magazine traffic, ending with a buffered double free and some
	// slots and frees still held back.
	m, err := h.NewMagazine()
	if err != nil {
		t.Fatal(err)
	}
	var mlive []heap.Ptr
	for i := 0; i < 600; i++ {
		p, err := m.Malloc(statsGoldenSizes[r.Intn(len(statsGoldenSizes))])
		if err != nil {
			t.Fatal(err)
		}
		mlive = append(mlive, p)
		if len(mlive) > 80 {
			v := r.Intn(len(mlive))
			if err := m.Free(mlive[v]); err != nil {
				t.Fatal(err)
			}
			mlive[v] = mlive[len(mlive)-1]
			mlive = mlive[:len(mlive)-1]
		}
	}
	dup := mlive[len(mlive)-1]
	mlive = mlive[:len(mlive)-1]
	for i := 0; i < 2; i++ {
		if err := m.Free(dup); err != nil {
			t.Fatal(err)
		}
	}
	row("magazine", nil)

	// Unbatched mixed sizes with large objects; every seventh free goes
	// through the remote route.
	sizes := append(append([]int(nil), statsGoldenSizes...), MaxObjectSize+100, 40000)
	var live []heap.FatPtr
	frees := 0
	for i := 0; i < 500; i++ {
		live = append(live, alloc(sizes[r.Intn(len(sizes))]))
		if len(live) > 60 {
			v := r.Intn(len(live))
			frees++
			release(live[v], frees%7 == 0)
			live[v] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	row("unbatched", nil)

	// Faults: double (sync and remote), misaligned, foreign, freed-large
	// and stale-after-reallocation frees.
	d := live[0]
	live = live[1:]
	release(d, false)
	release(d, false)
	rd := alloc(24)
	release(rd, true)
	release(rd, true)
	in := alloc(48)
	live = append(live, in)
	release(heap.FatPtr{Addr: in.Addr + 8, Gen: in.Gen}, false)
	release(heap.FatPtr{Addr: 0x1000, Gen: 1}, false)
	lg := alloc(MaxObjectSize + 1)
	release(lg, false)
	release(lg, false)
	old := alloc(8192)
	release(old, false)
	for i := 0; ; i++ {
		if i == 100000 {
			t.Fatal("slot never reallocated")
		}
		q := alloc(8192)
		if q.Addr == old.Addr {
			live = append(live, q)
			break
		}
		release(q, false)
	}
	release(old, false)
	row("faults", nil)

	h.FlushQuarantine()
	row("flush", nil)
	row("barrier", h.CheckInvariants())

	// Tear down: close the magazine, free everything still live, and
	// take the barrier again.
	m.Close()
	for _, p := range mlive {
		if err := h.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	for _, fp := range live {
		release(fp, false)
	}
	h.FlushQuarantine()
	row("final", h.CheckInvariants())
	return rows
}

// TestStatsGolden pins every Stats counter across the heap
// configurations the free golden covers, at each phase of one program.
func TestStatsGolden(t *testing.T) {
	f, err := os.Open("testdata/stats.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, kind := range freeGoldenHeaps {
		for _, tagged := range []bool{false, true} {
			got = append(got, statsGoldenRows(t, kind, tagged)...)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d rows, golden has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("row %d:\n got  %s\n want %s", i, got[i], want[i])
		}
	}
}
