package fault

import (
	"time"

	"ewmac/internal/sim"
)

// oscillator is a free-running local clock:
// local(t) = offset + t·(1 + skewPPM/1e6).
type oscillator struct {
	// offset is the initial phase error.
	offset time.Duration
	// skewPPM is the frequency error in parts per million (a cheap
	// crystal is ±20–100 ppm).
	skewPPM float64
}

// local converts true simulation time to this oscillator's reading.
func (o oscillator) local(global sim.Time) time.Duration {
	g := global.Duration()
	return o.offset + g + time.Duration(float64(g)*o.skewPPM/1e6)
}

// DriftClock is a disciplined imperfect oscillator implementing
// mac.Clock. The raw hardware behaviour is an oscillator (phase offset
// plus frequency skew); on top of it the node applies a
// correction learned at each synchronization epoch. Immediately after
// a Sync the corrected local reading equals true time; between syncs
// the residual skew re-accumulates error, and during a sync-loss
// episode (Desync) the error grows unbounded until discipline returns.
type DriftClock struct {
	raw oscillator
	// corr is subtracted from the raw reading; Sync sets it so the
	// corrected reading matches true time at the sync instant.
	corr time.Duration
	// lost marks an ongoing sync-loss episode: Sync calls are ignored.
	lost bool
}

// NewDriftClock builds a clock with the given initial phase offset and
// frequency skew (parts per million), not yet disciplined.
func NewDriftClock(offset time.Duration, skewPPM float64) *DriftClock {
	return &DriftClock{raw: oscillator{offset: offset, skewPPM: skewPPM}}
}

// Local implements mac.Clock.
func (c *DriftClock) Local(t sim.Time) time.Duration {
	return c.raw.local(t) - c.corr
}

// TrueTime implements mac.Clock: it inverts Local, returning the true
// instant at which the corrected local clock reads local.
func (c *DriftClock) TrueTime(local time.Duration) sim.Time {
	// local = Offset + g·(1+s/1e6) - corr  ⇒  g = (local + corr - Offset)/(1+s/1e6).
	g := float64(local+c.corr-c.raw.offset) / (1 + c.raw.skewPPM/1e6)
	return sim.At(time.Duration(g))
}

// Err reports the current clock error: corrected local reading minus
// true time at instant t.
func (c *DriftClock) Err(t sim.Time) time.Duration {
	return c.Local(t) - t.Duration()
}

// Sync disciplines the clock so its corrected reading equals true time
// at now. A clock inside a sync-loss episode ignores the call.
func (c *DriftClock) Sync(now sim.Time) {
	if c.lost {
		return
	}
	c.corr = c.raw.local(now) - now.Duration()
}

// Desync starts or ends a sync-loss episode.
func (c *DriftClock) Desync(lost bool) { c.lost = lost }
