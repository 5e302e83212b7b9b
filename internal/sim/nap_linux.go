package sim

import (
	"syscall"
	"time"
)

// nap sleeps for d on a kernel high-resolution timer, which wakes within
// the kernel's timer slack (50 µs by default) of d, where a Go timer in a
// process with a network descriptor open waits for the poller's next whole
// millisecond. A signal may end it early; the napper reads the clock after
// every nap.
func nap(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil)
}
