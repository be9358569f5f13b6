package main

import (
	"syscall"
	"time"
	"unsafe"
)

// clockProcessCPUTime is CLOCK_PROCESS_CPUTIME_ID.
const clockProcessCPUTime = 2

// cpuNow is the CPU time the process has used so far, user and system,
// over all its threads, to the nanosecond (getrusage rounds to the
// microsecond, which a 45 µs cache hit cannot afford). The benchmark
// times with it rather than with the wall clock: on a shared virtual
// machine the hypervisor takes the vCPUs away for stretches of seconds
// (steal time, up to 12% of a pass on the host in README.md), which
// slows the wall clock of a pass by up to a quarter while the process's
// own CPU time barely moves.
func cpuNow() time.Duration {
	var ts syscall.Timespec
	_, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	if e != 0 {
		panic("perfbench: clock_gettime: " + e.Error())
	}
	return time.Duration(ts.Nano())
}
