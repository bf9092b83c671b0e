package main

import (
	"syscall"
	"time"
	"unsafe"
)

// The timed run reads the kernel's processor-time clocks, not the wall
// clock.  Nothing in this simulation waits for a device -- disks and network
// are memory -- so on an undisturbed machine an operation's latency IS the
// processor time its thread used.  On a shared box the wall clock also
// counts the time the hypervisor gave to other guests; the processor clocks
// do not, which halves the run-to-run spread (see README, Steadiness).
const (
	clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID: every thread, the collector included
	clockThreadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID: the calling thread
)

func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("bench: clock_gettime: " + errno.Error())
	}
	return time.Duration(ts.Nano())
}

// threadCPU is the processor time of the calling thread.  The caller must
// have locked its goroutine to the thread.
func threadCPU() time.Duration { return cpuClock(clockThreadCPU) }

// processCPU is the processor time of the whole process.
func processCPU() time.Duration { return cpuClock(clockProcessCPU) }

var wallStart = time.Now()

// wallClock is the monotonic wall clock, for the traced run, whose spans
// are nested intervals of real time.
func wallClock() time.Duration { return time.Since(wallStart) }
