package main

import (
	"diehard/internal/core"
	"diehard/internal/heap"
	"diehard/internal/vmem"
)

// tracedAlloc is the heap.Allocator a traced kernel run receives: each
// Malloc and Free is one core span.
type tracedAlloc struct {
	h *core.Heap
	t *tracer
}

var _ heap.Allocator = (*tracedAlloc)(nil)

func (a *tracedAlloc) Malloc(size int) (heap.Ptr, error) {
	start := a.t.now()
	p, err := a.h.Malloc(size)
	a.t.done(opMalloc, start)
	return p, err
}

func (a *tracedAlloc) Free(p heap.Ptr) error {
	start := a.t.now()
	err := a.h.Free(p)
	a.t.done(opFree, start)
	return err
}

func (a *tracedAlloc) SizeOf(p heap.Ptr) (int, bool) { return a.h.SizeOf(p) }
func (a *tracedAlloc) Mem() *vmem.Space              { return a.h.Mem() }
func (a *tracedAlloc) Stats() *heap.Stats            { return a.h.Stats() }
func (a *tracedAlloc) Name() string                  { return a.h.Name() }

// tracedMem is the heap.Memory a traced kernel run receives. Every call
// is counted; the tracer decides which are timed, since a vmem access
// costs only a few times a clock read.
type tracedMem struct {
	s *vmem.Space
	t *tracer
	// bulkBytes is the byte count the bulk calls asked for (FindByte:
	// the bytes it examined).
	bulkBytes uint64
}

var _ heap.Memory = (*tracedMem)(nil)

func (m *tracedMem) Load8(addr uint64) (byte, error) {
	if !m.t.timeCall(opLoad) {
		return m.s.Load8(addr)
	}
	start := m.t.now()
	v, err := m.s.Load8(addr)
	m.t.done(opLoad, start)
	return v, err
}

func (m *tracedMem) Load32(addr uint64) (uint32, error) {
	if !m.t.timeCall(opLoad) {
		return m.s.Load32(addr)
	}
	start := m.t.now()
	v, err := m.s.Load32(addr)
	m.t.done(opLoad, start)
	return v, err
}

func (m *tracedMem) Load64(addr uint64) (uint64, error) {
	if !m.t.timeCall(opLoad) {
		return m.s.Load64(addr)
	}
	start := m.t.now()
	v, err := m.s.Load64(addr)
	m.t.done(opLoad, start)
	return v, err
}

func (m *tracedMem) Store8(addr uint64, v byte) error {
	if !m.t.timeCall(opStore) {
		return m.s.Store8(addr, v)
	}
	start := m.t.now()
	err := m.s.Store8(addr, v)
	m.t.done(opStore, start)
	return err
}

func (m *tracedMem) Store32(addr uint64, v uint32) error {
	if !m.t.timeCall(opStore) {
		return m.s.Store32(addr, v)
	}
	start := m.t.now()
	err := m.s.Store32(addr, v)
	m.t.done(opStore, start)
	return err
}

func (m *tracedMem) Store64(addr uint64, v uint64) error {
	if !m.t.timeCall(opStore) {
		return m.s.Store64(addr, v)
	}
	start := m.t.now()
	err := m.s.Store64(addr, v)
	m.t.done(opStore, start)
	return err
}

func (m *tracedMem) ReadBytes(addr uint64, b []byte) error {
	m.bulkBytes += uint64(len(b))
	if !m.t.timeCall(opBulk) {
		return m.s.ReadBytes(addr, b)
	}
	start := m.t.now()
	err := m.s.ReadBytes(addr, b)
	m.t.done(opBulk, start)
	return err
}

func (m *tracedMem) WriteBytes(addr uint64, b []byte) error {
	m.bulkBytes += uint64(len(b))
	if !m.t.timeCall(opBulk) {
		return m.s.WriteBytes(addr, b)
	}
	start := m.t.now()
	err := m.s.WriteBytes(addr, b)
	m.t.done(opBulk, start)
	return err
}

func (m *tracedMem) Memset(addr uint64, v byte, n int) error {
	m.bulkBytes += uint64(n)
	if !m.t.timeCall(opBulk) {
		return m.s.Memset(addr, v, n)
	}
	start := m.t.now()
	err := m.s.Memset(addr, v, n)
	m.t.done(opBulk, start)
	return err
}

func (m *tracedMem) MemMove(dst, src uint64, n int) error {
	m.bulkBytes += uint64(n)
	if !m.t.timeCall(opBulk) {
		return m.s.MemMove(dst, src, n)
	}
	start := m.t.now()
	err := m.s.MemMove(dst, src, n)
	m.t.done(opBulk, start)
	return err
}

func (m *tracedMem) FindByte(addr uint64, c byte, limit int) (int, bool, error) {
	var (
		idx   int
		found bool
		err   error
	)
	if !m.t.timeCall(opBulk) {
		idx, found, err = m.s.FindByte(addr, c, limit)
	} else {
		start := m.t.now()
		idx, found, err = m.s.FindByte(addr, c, limit)
		m.t.done(opBulk, start)
	}
	if found {
		m.bulkBytes += uint64(idx + 1)
	} else if err == nil {
		m.bulkBytes += uint64(limit)
	}
	return idx, found, err
}
