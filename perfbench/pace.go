package main

import (
	"runtime"
	"syscall"
	"time"
)

// prSetTimerSlack is Linux's PR_SET_TIMERSLACK prctl.
const prSetTimerSlack = 29

// lockPacer dedicates the calling goroutine's OS thread to pacing an
// open loop. Go's own timers wake up to a millisecond late on an idle
// process (its poller waits in whole milliseconds), which would count
// as latency of the system under test; a nanosleep on a thread with a
// 1 ns timer slack wakes within about 10 µs. The thread is not unlocked,
// so it exits with the goroutine and the slack setting goes with it.
func lockPacer() {
	runtime.LockOSThread()
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0) // best effort: without it pacing is coarser, not wrong
}

// sleepUntil blocks the locked thread until t.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		if syscall.Nanosleep(&ts, nil) == nil {
			return
		}
	}
}
