package main

import (
	"math/rand"
	"time"
)

// Host-speed calibration.
//
// On a shared host the same work runs at different speeds from one
// minute to the next: neighbours on the same cores and caches slowed an
// identical composed run by up to 2× within a few minutes, while steal
// stayed under 2%. No per-run statistic of raw wall time is steady under
// that. So the benchmark runs a fixed calibration workload next to every
// set-up and every unit of work, and reports each end-to-end time
// rescaled to a host on which the calibration takes refCalibration:
//
//	reported = measured × refCalibration / calibration
//
// The calibration does not call the program, so a change to the program
// moves only the measured time, in full. In a three-minute test of one
// composed run, medians over 25 s windows spread by 14% as measured and
// by 2.5% rescaled. Reports keep the raw wall times beside the rescaled
// ones.
//
// The workload resembles the event-driven simulator: a binary heap of
// timed events, small matrix-vector products like a recurrent-cell step,
// and map updates. It runs over a small live set that stays in cache and
// a large one that does not, because the program's slowdowns tracked a
// mix of the two better than either alone. Its memory is allocated once,
// so it causes no garbage collection and no garbage collection state of
// the program changes its time.

// refCalibration is the calibration's duration on the reference host, a
// 2-vCPU Intel Xeon with AVX2, rounded: it took 0.08 to 0.16 s there as
// the load from other guests changed.
const refCalibration = 100 * time.Millisecond

// calEvent is one heap entry; next links events into chains through the
// arena, so the large phase chases pointers as the simulator does.
type calEvent struct {
	t    float64
	a    int32
	next int32
}

// Calibrator owns the calibration workload's memory.
type Calibrator struct {
	rng   *rand.Rand
	arena []calEvent
	heap  []int32
	w, x  []float64
	y     []float64
	m     map[int32]int32
	sink  float64
}

// calibration phases: live heap size and number of pop/push steps.
var calPhases = []struct{ live, ops int }{
	{live: 40_000, ops: 100_000}, // fits in cache
	{live: 200_000, ops: 60_000}, // does not
}

func newCalibrator() *Calibrator {
	maxLive := 0
	for _, p := range calPhases {
		maxLive = max(maxLive, p.live)
	}
	return &Calibrator{
		rng:   rand.New(rand.NewSource(1)),
		arena: make([]calEvent, maxLive),
		heap:  make([]int32, 0, maxLive),
		w:     make([]float64, 96*24),
		x:     make([]float64, 24),
		y:     make([]float64, 96),
		m:     make(map[int32]int32, 4096),
	}
}

// Run performs the fixed calibration workload once and returns its
// duration. Every run does exactly the same operations.
func (c *Calibrator) Run() time.Duration {
	t0 := time.Now()
	r := c.rng
	r.Seed(1)
	for i := range c.w {
		c.w[i] = r.Float64() - 0.5
	}
	for _, p := range calPhases {
		c.phase(r, p.live, p.ops)
	}
	return time.Since(t0)
}

func (c *Calibrator) less(i, j int) bool { return c.arena[c.heap[i]].t < c.arena[c.heap[j]].t }

func (c *Calibrator) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !c.less(i, p) {
			return
		}
		c.heap[p], c.heap[i] = c.heap[i], c.heap[p]
		i = p
	}
}

func (c *Calibrator) down(i int) {
	n := len(c.heap)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		if r := l + 1; r < n && c.less(r, l) {
			l = r
		}
		if !c.less(l, i) {
			return
		}
		c.heap[i], c.heap[l] = c.heap[l], c.heap[i]
		i = l
	}
}

func (c *Calibrator) phase(r *rand.Rand, live, ops int) {
	c.heap = c.heap[:0]
	clear(c.m)
	for i := 0; i < live; i++ {
		c.arena[i] = calEvent{t: r.Float64(), a: int32(i), next: int32(r.Intn(live))}
		c.heap = append(c.heap, int32(i))
		c.up(len(c.heap) - 1)
	}
	for i := 0; i < ops; i++ {
		// Pop the earliest event and reschedule it later, as a
		// simulator's event loop does.
		top := c.heap[0]
		e := &c.arena[top]
		now := e.t
		if i%8 == 0 {
			for j := range c.x {
				c.x[j] = now * float64(j)
			}
			for o := range c.y {
				s := 0.0
				for j, v := range c.w[o*24 : o*24+24] {
					s += v * c.x[j]
				}
				c.y[o] = s
			}
		}
		c.m[e.a&0xfff] = top
		e.t = now + r.Float64()
		e.a++
		e.next = c.arena[e.next].next
		c.down(0)
	}
	c.sink += c.y[3] + float64(c.arena[c.heap[0]].next)
}

// rescale converts a measured duration to reference-host seconds, given
// the calibration time measured next to it.
func rescale(measured, calibration time.Duration) float64 {
	if calibration <= 0 {
		return measured.Seconds()
	}
	return measured.Seconds() * float64(refCalibration) / float64(calibration)
}
