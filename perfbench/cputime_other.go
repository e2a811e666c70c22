//go:build !linux

package main

// threadCPUNs is unavailable here; kernel runs fall back to wall time.
func threadCPUNs() int64 { return -1 }
