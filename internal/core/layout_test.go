package core

import (
	"testing"
	"unsafe"
)

// TestSizeClassLayout pins the class-local ledger layout (DESIGN.md §7):
// every word a claim or a free writes sits in the first 64-byte line of
// sizeClass, the struct is exactly two lines, and the heaps New and
// NewSharded build place Heap.classes on a 64-byte boundary — so no two
// classes, and no heap-wide counter, share the line a class's
// operations write.
func TestSizeClassLayout(t *testing.T) {
	const line = 64
	var cl sizeClass
	ledger := unsafe.Offsetof(cl.ledger)
	hot := map[string]uintptr{
		"randState":       unsafe.Offsetof(cl.randState),
		"inUse":           unsafe.Offsetof(cl.inUse),
		"mallocs":         unsafe.Offsetof(cl.mallocs),
		"ledger.served":   ledger + unsafe.Offsetof(cl.ledger.served),
		"ledger.frees":    ledger + unsafe.Offsetof(cl.ledger.frees),
		"ledger.reqBytes": ledger + unsafe.Offsetof(cl.ledger.reqBytes),
		"ledger.probes":   ledger + unsafe.Offsetof(cl.ledger.probes),
		"ledger.peak":     ledger + unsafe.Offsetof(cl.ledger.peak),
	}
	for name, off := range hot {
		if off+8 > line {
			t.Errorf("sizeClass.%s at offset %d leaves the first %d-byte line", name, off, line)
		}
	}
	if size := unsafe.Sizeof(cl); size != 2*line {
		t.Errorf("sizeClass is %d bytes, want %d (two lines)", size, 2*line)
	}
	heaps := []*Heap{testHeap(t, Options{HeapSize: 1 << 20, Seed: 1}),
		testHeap(t, Options{HeapSize: 1 << 20, Seed: 1, Concurrent: true, GenTags: true})}
	sh, err := NewSharded(2, Options{HeapSize: 2 << 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	heaps = append(heaps, sh.shards...)
	for i, h := range heaps {
		if addr := uintptr(unsafe.Pointer(&h.classes[0])); addr%line != 0 {
			t.Errorf("heap %d: classes at %#x, not %d-byte aligned", i, addr, line)
		}
	}
}
