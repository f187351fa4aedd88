//go:build !linux

package main

import "time"

// sleeper falls back to time.Sleep where timerfd is unavailable; the
// generator's lateness readout then shows the coarser wakeups.
type sleeper struct{}

func newSleeper() (*sleeper, error) { return &sleeper{}, nil }

func (s *sleeper) until(t time.Time) error {
	time.Sleep(time.Until(t))
	return nil
}

func (s *sleeper) close() {}
