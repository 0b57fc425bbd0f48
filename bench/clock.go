package main

import (
	"fmt"
	"time"
)

// clock measures time at the box's full speed. The reference box is a
// few cores of a shared host. Its clock rate moves between a fast state
// and states up to 30 % slower several times a minute, whatever the
// guest does, and for stretches of a tenth of a second the host gives a
// core to someone else half of the time; neither shows in the guest's
// own accounting. A run that met the slow states more often than its
// neighbour would report a code change that is not there.
//
// So the measuring goroutine itself times a fixed reference loop (spin)
// every few milliseconds, between two operations, and the clock
// advances not by one second per second but by nominal/spin seconds:
// wall time weighted by how fast the box was running just then. The
// spins themselves take no time on this clock. When the run ends, the
// fastest spins it saw define full speed, and every timed metric is
// converted to seconds at that speed (fullSpeed, report.atFullSpeed).
// What remains between runs is what the program did and the noise that
// a loop of register arithmetic does not feel: contention for the
// memory system, which the medians over rounds are for.
//
// The traced run does not calibrate: its spans are wall time and the
// clock runs beside them at one second per second. A clock is used by
// one goroutine at a time.
type clock struct {
	calibrated bool
	wall       time.Time     // when the last calibration ended
	at         time.Duration // the reading then
	rate       float64       // clock seconds per wall second until the next
	nominal    time.Duration // the spin the clock's unit is defined by: the first
	spins      []time.Duration
}

const (
	// spinRounds makes the reference loop take about 60 µs at full
	// speed, long against the cost of reading the time. A calibration
	// is the shorter of two spins: whatever interrupts one only adds to
	// it.
	spinRounds = 40_000
	// calibrateEvery bounds how stale the rate may be when now is called
	// often; before a long call that the clock cannot look into, the
	// caller calls steady.
	calibrateEvery = 4 * time.Millisecond
	steadyOver     = 64
)

var spinSink uint64

// spin is the reference loop: register arithmetic only, so that nothing
// but the speed of the core decides how long it takes.
func spin() time.Duration {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < spinRounds; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	spinSink += x
	return time.Since(start)
}

// startClock starts the clock; calibrated says whether it follows the
// box's speed or the wall.
func startClock(calibrated bool) *clock {
	c := &clock{calibrated: calibrated, wall: time.Now(), rate: 1}
	if calibrated {
		c.nominal = min(spin(), spin())
		c.calibrate()
	}
	return c
}

// calibrate brings the clock up to the present and sets its rate from a
// fresh pair of spins.
func (c *clock) calibrate() {
	if !c.calibrated {
		return
	}
	t := time.Now()
	c.at += time.Duration(float64(t.Sub(c.wall)) * c.rate)
	d := min(spin(), spin())
	c.spins = append(c.spins, d)
	c.rate = float64(c.nominal) / float64(d)
	c.wall = time.Now()
}

// steady calibrates and then sets the rate not from the one fresh pair
// of spins but from the mean of the last steadyOver: the caller is about
// to make a call the clock cannot look into, longer than the box stays
// at one speed, and how fast the box has been on average of late says
// more about that call than how fast it is this very millisecond.
func (c *clock) steady() {
	if !c.calibrated {
		return
	}
	c.calibrate()
	recent := c.spins[max(0, len(c.spins)-steadyOver):]
	var sum time.Duration
	for _, d := range recent {
		sum += d
	}
	c.rate = float64(c.nominal) * float64(len(recent)) / float64(sum)
}

// meanRate is the clock's average rate over all calibrations so far: a
// wall duration times meanRate is that duration on the clock, for a span
// too long and too early for the rate of the moment to mean anything.
func (c *clock) meanRate() float64 {
	if len(c.spins) == 0 {
		return 1
	}
	var sum time.Duration
	for _, d := range c.spins {
		sum += d
	}
	return float64(c.nominal) * float64(len(c.spins)) / float64(sum)
}

// now is the clock's reading: time since the run began, in the clock's
// provisional unit (see fullSpeed). It calibrates when the rate has
// gone stale, after taking the reading.
func (c *clock) now() time.Duration {
	since := time.Since(c.wall)
	v := c.at + time.Duration(float64(since)*c.rate)
	if c.calibrated && since >= calibrateEvery {
		c.calibrate()
		c.at = v
	}
	return v
}

// fullSpeed returns the factor that converts the clock's durations into
// seconds at the box's full speed. While the run lasts the clock counts
// in units of the first spin it made; what full speed is, only the
// whole run's spins can say: the fastest hundredth of them, not the one
// fastest, which may be a clock read too early.
func (c *clock) fullSpeed() float64 {
	if len(c.spins) == 0 {
		return 1
	}
	return c.spinQuantile(0.01) / float64(c.nominal)
}

// spinQuantile is the q-quantile of the run's spins, in ns.
func (c *clock) spinQuantile(q float64) float64 {
	s := make([]float64, len(c.spins))
	for i, d := range c.spins {
		s[i] = float64(d)
	}
	return quantile(sorted(s), q)
}

// String says how fast the box ran while the clock watched it.
func (c *clock) String() string {
	if len(c.spins) == 0 {
		return "clock: wall time, not calibrated"
	}
	return fmt.Sprintf("clock: %d calibrations; the reference loop took %.1f µs at full speed, %.1f µs at the median, %.1f µs at the 90th percentile",
		len(c.spins), c.spinQuantile(0.01)/1e3, c.spinQuantile(0.5)/1e3, c.spinQuantile(0.9)/1e3)
}
