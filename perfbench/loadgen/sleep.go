package loadgen

import (
	"runtime"
	"syscall"
	"time"
)

// prSetTimerSlack is prctl's PR_SET_TIMERSLACK.
const prSetTimerSlack = 29

// preciseSleeper returns a sleep for the dispatcher. The runtime's timers
// wake on the network poller's millisecond ticks, so a sub-millisecond
// wait would fire up to a millisecond late and that lateness would be
// charged to every request as latency. The dispatcher instead owns an OS
// thread with a 1ns timer slack and sleeps in nanosleep(2), which wakes
// within tens of microseconds without spinning. Call it from the
// goroutine that will sleep; release undoes the thread lock.
func preciseSleeper() (sleep func(time.Duration), release func()) {
	runtime.LockOSThread()
	// Best effort: without it nanosleep still works, with the default
	// 50µs slack.
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
	sleep = func(d time.Duration) {
		ts := syscall.NsecToTimespec(int64(d))
		for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
		}
	}
	return sleep, runtime.UnlockOSThread
}
