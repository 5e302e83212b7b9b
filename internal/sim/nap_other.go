//go:build !linux

package sim

import "time"

// nap sleeps for d. syscall.Nanosleep does not exist on every OS (windows
// lacks it), and the millisecond rounding it avoids on Linux is epoll's
// (darwin's kqueue takes nanosecond timeouts), so elsewhere a plain sleep
// serves.
func nap(d time.Duration) {
	time.Sleep(d) //lint:allow nodeterm -- the napper's sleep toward a wall-clock deadline
}
