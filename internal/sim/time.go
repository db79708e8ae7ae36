// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine is single-threaded by design: underwater MAC experiments are
// sensitive to the exact interleaving of packet arrivals, so event
// execution order must be a pure function of the initial seed and the
// scheduled work. Events at the same instant are ordered by an explicit
// priority and then by scheduling sequence number.
package sim

import (
	"fmt"
	"time"
)

// Time is an absolute simulation instant, in nanoseconds since the start
// of the simulation. The zero Time is the simulation epoch.
type Time int64

// Common instants and conversion helpers.
const (
	// Epoch is the start of simulated time.
	Epoch Time = 0
)

// At converts a duration since the epoch into an absolute Time.
func At(d time.Duration) Time { return Time(d.Nanoseconds()) }

// Add returns the instant d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration from u to t.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Seconds reports t as fractional seconds since the epoch.
func (t Time) Seconds() float64 { return float64(t) / float64(time.Second) }

// Duration reports the instant as a duration since the epoch.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Before reports whether t is strictly earlier than u.
func (t Time) Before(u Time) bool { return t < u }

// After reports whether t is strictly later than u.
func (t Time) After(u Time) bool { return t > u }

// String formats the instant as seconds with millisecond precision.
func (t Time) String() string {
	return fmt.Sprintf("t=%.6fs", t.Seconds())
}
