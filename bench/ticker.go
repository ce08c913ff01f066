package main

import (
	"encoding/binary"
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// ticker is a periodic kernel timer (Linux timerfd) read through the Go
// runtime's network poller. It is how the paced generator sleeps to its
// schedule without spinning: time.Sleep cannot, because an idle runtime
// waits for timers in epoll_wait, whose millisecond timeout rounds every
// sub-millisecond gap up to 1 ms; and nanosleep(2) must not, because a
// goroutine blocked in a raw syscall keeps its P, and with two Ps two
// sleeping clients starve the gateway. A timerfd expiry wakes the poller
// the same way an arriving packet does.
type ticker struct {
	f     *os.File
	first time.Time // when tick 0 is due
	buf   [8]byte
}

// newTicker arms a timer whose first tick is due after delay and then
// every period.
func newTicker(delay, period time.Duration) (*ticker, error) {
	const tfdNonblock, tfdCloexec = 0x800, 0x80000 // O_NONBLOCK, O_CLOEXEC
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, 1 /* CLOCK_MONOTONIC */, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	t := &ticker{f: os.NewFile(fd, "timerfd")}
	if delay <= 0 {
		delay = 1 // a zero it_value would disarm the timer
	}
	spec := struct{ interval, value syscall.Timespec }{
		syscall.NsecToTimespec(int64(period)), syscall.NsecToTimespec(int64(delay)),
	}
	t.first = time.Now().Add(delay)
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		t.f.Close()
		return nil, fmt.Errorf("timerfd_settime: %w", errno)
	}
	return t, nil
}

// wait blocks until at least one tick is due and returns how many have
// come due since the last call.
func (t *ticker) wait() (int, error) {
	if _, err := t.f.Read(t.buf[:]); err != nil {
		return 0, err
	}
	return int(binary.NativeEndian.Uint64(t.buf[:])), nil
}

func (t *ticker) close() { t.f.Close() }
