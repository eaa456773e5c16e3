//go:build linux

package main

import (
	"syscall"
	"unsafe"
)

const clockThreadCPUTimeID = 3

// threadCPU is the calling thread's consumed CPU time in nanoseconds. Time
// the thread spends runnable but descheduled does not count, so the
// speedometer measures how fast a core runs, not how busy the cores are.
func threadCPU() int64 {
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0) //nolint:errcheck
	return ts.Nano()
}
