//go:build !linux

package main

// threadCPU is not available: every reading is dropped as unresolved, the
// speed reads 1 and every time stays as the clock gave it.
func threadCPU() int64 { return 0 }
