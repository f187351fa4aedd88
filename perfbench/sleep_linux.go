//go:build linux

package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// sleeper waits until an instant with tens-of-microseconds precision
// whether the process is idle or busy. Neither Go mechanism manages
// both alone: an idle runtime waits for timers in whole milliseconds,
// so time.Sleep under a millisecond wakes about a millisecond late,
// while a busy runtime checks timers on every scheduling decision but
// may poll file descriptors only every few milliseconds. The sleeper
// arms a kernel timerfd (read through the runtime poller, precise when
// idle) and a Go timer (precise when busy) and wakes on whichever
// fires first.
type sleeper struct {
	fd    uintptr
	file  *os.File
	fired chan struct{}
	done  chan struct{}
}

func newSleeper() (*sleeper, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, 1 /* CLOCK_MONOTONIC */, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, errno
	}
	s := &sleeper{fd: fd, file: os.NewFile(fd, "timerfd"), fired: make(chan struct{}, 1), done: make(chan struct{})}
	go s.read()
	return s, nil
}

// read forwards each timerfd expiry until the file is closed.
func (s *sleeper) read() {
	defer close(s.done)
	var buf [8]byte
	for {
		if _, err := s.file.Read(buf[:]); err != nil {
			return
		}
		select {
		case s.fired <- struct{}{}:
		default:
		}
	}
}

func (s *sleeper) arm(d time.Duration) error {
	spec := struct{ interval, value syscall.Timespec }{value: syscall.NsecToTimespec(int64(d))}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, s.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return errno
	}
	return nil
}

// until returns once t has passed. A stale expiry left over from an
// earlier wait only costs one more pass around the loop.
func (s *sleeper) until(t time.Time) error {
	for {
		d := time.Until(t)
		if d <= 0 {
			return nil
		}
		if err := s.arm(d); err != nil {
			return err
		}
		timer := time.NewTimer(d)
		select {
		case <-s.fired:
		case <-timer.C:
		}
		timer.Stop()
	}
}

func (s *sleeper) close() {
	_ = s.file.Close()
	<-s.done
}
