//go:build unix

package main

import (
	"syscall"
	"time"
)

// sleepUntil blocks until t. The runtime's timers wake up to a millisecond
// late on an idle host, which would swamp the sub-millisecond requests an
// open loop times from their due times, so the last stretch is a
// nanosleep system call, late by the kernel's timer slack only.
func sleepUntil(t time.Time) {
	d := time.Until(t)
	if d > 2*time.Millisecond {
		time.Sleep(d - 2*time.Millisecond)
		d = time.Until(t)
	}
	if d > 0 {
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		syscall.Nanosleep(&ts, nil) // an interrupted sleep just sends early
	}
}
