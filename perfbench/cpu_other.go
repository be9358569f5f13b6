//go:build !linux

package main

import (
	"syscall"
	"time"
)

// cpuNow is the CPU time the process has used so far, user and system,
// over all its threads; see cpu_linux.go.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("perfbench: getrusage: " + err.Error())
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
