package main

import (
	"syscall"
	"time"
	"unsafe"
)

// Linux's CLOCK_PROCESS_CPUTIME_ID and CLOCK_THREAD_CPUTIME_ID.
const (
	clockProcessCPUTime = 2
	clockThreadCPUTime  = 3
)

// cpuNow is the CPU time the process has run so far, summed over its
// threads. The kernel charges a thread only while it runs, so time the
// hypervisor steals from the VM or other processes hold the core does
// not count.
func cpuNow() time.Duration { return clockNow(clockProcessCPUTime) }

// threadCPUNow is the CPU time the calling OS thread has run so far.
func threadCPUNow() time.Duration { return clockNow(clockThreadCPUTime) }

func clockNow(clock uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clock, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("clock_gettime: " + errno.Error())
	}
	return time.Duration(ts.Nano())
}

// unsafeWords views b as 64-bit words.
func unsafeWords(b []byte) []uint64 {
	return unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(b))), len(b)/8)
}
