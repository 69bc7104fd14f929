package main

import (
	"bytes"
	"os"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"
)

// rssSampler tracks the peak resident set size of this process while a
// workload runs, by polling /proc/self/statm. Where that file cannot be
// read it falls back to the kernel's lifetime peak (getrusage), which
// also covers set-up.
type rssSampler struct {
	stop chan struct{}
	done chan struct{}
	peak atomic.Uint64 // bytes: highest reading since the last Take
}

func startRSSSampler(every time.Duration) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s.peak.Store(uint64(residentBytes()))
	go func() {
		defer close(s.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.observe()
			case <-s.stop:
				return
			}
		}
	}()
	return s
}

func (s *rssSampler) observe() {
	v := uint64(residentBytes())
	for p := s.peak.Load(); v > p && !s.peak.CompareAndSwap(p, v); p = s.peak.Load() {
	}
}

// Take returns the peak in bytes since the previous Take (or the start)
// and begins a new interval at the current reading.
func (s *rssSampler) Take() float64 {
	s.observe()
	return float64(s.peak.Swap(uint64(residentBytes())))
}

// Stop ends sampling; the sampling goroutine has exited when it returns.
func (s *rssSampler) Stop() {
	close(s.stop)
	<-s.done
}

var pageSize = float64(os.Getpagesize())

func residentBytes() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err == nil {
		if f := bytes.Fields(b); len(f) >= 2 {
			if pages, err := strconv.ParseUint(string(f[1]), 10, 64); err == nil {
				return float64(pages) * pageSize
			}
		}
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 // Linux reports kilobytes
}
