package main

import (
	"syscall"
	"unsafe"
)

// threadCPUNs returns the CPU time the calling OS thread has used, in
// ns. Callers lock the goroutine to its thread around the interval.
func threadCPUNs() int64 {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return -1
	}
	return ts.Nano()
}
