package main

import (
	"math"
	"time"
)

// A shared host slows down and speeds up by 10–50% over tens of
// seconds as other tenants load it, and a run's CPU time moves with its
// wall time, so neither can be compared across invocations as measured.
// Every timing metric is therefore scaled to a reference host speed: the
// benchmark times a fixed probe between runs and divides each time by
// loadFactor. The probe allocates nothing and writes no pointers, so the
// simulator's garbage collector cannot slow it, and it is timed only
// after an untimed pass has brought its data back into cache, so the
// cache state a run leaves behind cannot change its time either.
//
// Under load the probe slows down more than the simulator does: on the
// reference host, the simulator's slowdown was close to the square root
// of the probe's (see README.md), so loadFactor is that square root.

// probeRefMs is the probe's time on the reference host: its median on
// one vCPU of a lightly loaded 2-vCPU Intel Xeon VM at 2.1 GHz.
const probeRefMs = 0.60

// calibration holds the probe's state, sized like the simulator's hot
// data: an event heap, a node table and dB arithmetic.
type calibration struct {
	heap    []uint64
	table   map[uint32]uint32
	samples []float64
}

func newCalibration() *calibration {
	return &calibration{heap: make([]uint64, 0, 4096), table: make(map[uint32]uint32, 4096)}
}

// sample times one warm pass of the probe.
func (c *calibration) sample() {
	c.probe()
	start := time.Now()
	c.probe()
	c.samples = append(c.samples, float64(time.Since(start))/1e6)
}

func (c *calibration) probe() {
	x := uint64(12345)
	var db float64
	for i := 0; i < 8192; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		c.push(x >> 16)
		c.table[uint32(x>>40)&4095] += uint32(x)
		db += 10 * math.Log10(float64(x>>40)+1)
		if i&1 == 1 {
			c.pop()
		}
	}
	c.heap = c.heap[:0]
	sink += db
}

func (c *calibration) push(v uint64) {
	h := append(c.heap, v)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	c.heap = h
}

func (c *calibration) pop() {
	h := c.heap
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		l, r, m := 2*i+1, 2*i+2, i
		if l < n && h[l] < h[m] {
			m = l
		}
		if r < n && h[r] < h[m] {
			m = r
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	c.heap = h
}

// loadFactor is how much slower than on the reference host the simulator
// is taken to run: the square root of the probe's median time over its
// reference time. It is 1 on the reference host.
func (c *calibration) loadFactor() float64 {
	if len(c.samples) == 0 {
		return 1
	}
	return math.Sqrt(quantile(c.samples, 0.5) / probeRefMs)
}
