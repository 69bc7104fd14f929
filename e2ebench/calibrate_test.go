package main

import (
	"testing"
	"time"
)

func TestRescale(t *testing.T) {
	for _, c := range []struct {
		measured, cal time.Duration
		want          float64
	}{
		{2 * time.Second, refCalibration, 2},
		{2 * time.Second, 2 * refCalibration, 1},
		{2 * time.Second, refCalibration / 2, 4},
		{2 * time.Second, 0, 2}, // no calibration: as measured
	} {
		if got := rescale(c.measured, c.cal); got != c.want {
			t.Errorf("rescale(%v, %v) = %v, want %v", c.measured, c.cal, got, c.want)
		}
	}
}

// A pending time is rescaled by the mean of the calibrations just before
// and just after it; its raw value is kept.
func TestSettleUsesBracketingCalibrations(t *testing.T) {
	b := &Bench{samples: map[string][]float64{}, raw: map[string][]float64{}}
	b.lastCal = refCalibration
	b.calibrate = func() time.Duration { return 2 * refCalibration }
	b.Time("wall_s", 3*time.Second)
	b.Time("estimate_s", 1500*time.Millisecond)
	b.settle()
	if got := b.samples["wall_s"]; len(got) != 1 || got[0] != 2 {
		t.Errorf("wall_s = %v, want [2] (3 s at 1.5× the reference calibration)", got)
	}
	if got := b.samples["estimate_s"]; len(got) != 1 || got[0] != 1 {
		t.Errorf("estimate_s = %v, want [1]", got)
	}
	if got := b.raw["wall_s"]; len(got) != 1 || got[0] != 3 {
		t.Errorf("raw wall_s = %v, want [3]", got)
	}
	if b.lastCal != 2*refCalibration || len(b.pending) != 0 {
		t.Errorf("after settle: lastCal %v, %d pending", b.lastCal, len(b.pending))
	}

	// Traced runs have no calibrator and keep times as measured.
	tr := &Bench{samples: map[string][]float64{}, raw: map[string][]float64{}}
	tr.Time("wall_s", 3*time.Second)
	tr.settle()
	if got := tr.samples["wall_s"]; len(got) != 1 || got[0] != 3 {
		t.Errorf("uncalibrated wall_s = %v, want [3]", got)
	}
}

// Every calibration does the same work and allocates nothing, so the
// program's garbage collection cannot change its time.
func TestCalibratorRepeatsWithoutAllocating(t *testing.T) {
	a, b := newCalibrator(), newCalibrator()
	a.Run()
	b.Run()
	if a.sink != b.sink {
		t.Fatalf("two calibrators disagree: %v vs %v", a.sink, b.sink)
	}
	first := a.sink
	a.Run()
	if a.sink != 2*first {
		t.Fatalf("second run of one calibrator differs: %v after %v", a.sink-first, first)
	}
	if n := testing.AllocsPerRun(2, func() { a.Run() }); n != 0 {
		t.Errorf("calibration allocates %v times per run", n)
	}
}

func TestRSSSamplerTakesPeaksPerInterval(t *testing.T) {
	s := startRSSSampler(time.Millisecond)
	defer s.Stop()
	first := s.Take()
	if first <= 0 {
		t.Fatalf("peak RSS %v, want > 0", first)
	}
	hold := make([]byte, 64<<20)
	for i := range hold {
		hold[i] = 1
	}
	grown := s.Take()
	if grown < first+32<<20 {
		t.Errorf("peak after touching 64 MiB is %v, before %v", grown, first)
	}
	_ = hold[len(hold)-1]
}
