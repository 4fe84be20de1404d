package main

import (
	"math/rand"
	"time"
)

// Host-speed calibration. The sandbox this benchmark runs in shares
// its cores, caches and memory bus with other tenants, and its speed
// drifts by 10-30 % over minutes: long enough to shift a whole run,
// short enough that two sets of runs of the same build disagree. So
// every client interleaves its traffic with short slices of a fixed
// kernel — dependent loads over 16 MB plus a register-only xorshift
// loop, no allocation, no system calls — and the run's end-to-end
// times are scaled by how long its slices took relative to
// calNominalMs. The kernel shares nothing with the system under test,
// so a faster or slower build moves the metrics exactly as before;
// only the host's share of the variation is divided out. Slices are
// never inside a timed interval.
const calNominalMs = 8.5 // one slice on the defining host when quiet

// calMem is one random cycle through 4 Mi uint32s: each load's address
// depends on the previous load's value. Built by initCalibration, so
// modes that run no workload do not pay for it.
var calMem []uint32

func initCalibration() {
	if calMem != nil {
		return
	}
	const n = 1 << 22
	p := rand.New(rand.NewSource(42)).Perm(n)
	calMem = make([]uint32, n)
	for i := 0; i < n; i++ {
		calMem[p[i]] = uint32(p[(i+1)%n])
	}
}

type calState struct {
	pos uint32
	x   uint64
}

// slice runs one calibration slice and returns how long it took.
func (c *calState) slice() time.Duration {
	t0 := time.Now()
	pos := c.pos
	for i := 0; i < 30000; i++ {
		pos = calMem[pos]
	}
	c.pos = pos
	x := c.x | 1
	for i := 0; i < 1500000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	c.x = x
	return time.Since(t0)
}
