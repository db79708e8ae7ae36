// Package energy meters per-node power consumption. The paper's §5.2
// compares protocols by the energy spent waiting (idle listening),
// transmitting, and receiving; the meter integrates time spent in each
// radio state against a power profile so those components can be
// reported separately.
package energy

import (
	"fmt"

	"ewmac/internal/sim"
)

// State is the radio state being metered.
type State uint8

// Radio states.
const (
	// StateIdle is powered-on listening with no signal present (the
	// paper's "waiting" energy).
	StateIdle State = iota + 1
	// StateRx is actively receiving a signal.
	StateRx
	// StateTx is transmitting.
	StateTx
	// StateSleep is a low-power state (unused by the paper's protocols
	// but supported for extensions).
	StateSleep
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateIdle:
		return "idle"
	case StateRx:
		return "rx"
	case StateTx:
		return "tx"
	case StateSleep:
		return "sleep"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Profile is the power drawn in each state, in watts. Defaults follow a
// WHOI-micromodem-class acoustic modem.
type Profile struct {
	TxW    float64
	RxW    float64
	IdleW  float64
	SleepW float64
}

// DefaultProfile returns a typical acoustic-modem power profile.
func DefaultProfile() Profile {
	return Profile{TxW: 2.0, RxW: 0.75, IdleW: 0.08, SleepW: 0.001}
}

// Validate reports non-physical profiles.
func (p Profile) Validate() error {
	if p.TxW < 0 || p.RxW < 0 || p.IdleW < 0 || p.SleepW < 0 {
		return fmt.Errorf("energy: negative power in profile %+v", p)
	}
	return nil
}

func (p Profile) watts(s State) float64 {
	switch s {
	case StateTx:
		return p.TxW
	case StateRx:
		return p.RxW
	case StateSleep:
		return p.SleepW
	default:
		return p.IdleW
	}
}

// Breakdown is cumulative energy per state, in joules.
type Breakdown struct {
	IdleJ  float64
	RxJ    float64
	TxJ    float64
	SleepJ float64
}

// Total returns the summed energy in joules.
func (b Breakdown) Total() float64 { return b.IdleJ + b.RxJ + b.TxJ + b.SleepJ }

// Sub returns the component-wise difference b − o.
func (b Breakdown) Sub(o Breakdown) Breakdown {
	return Breakdown{
		IdleJ:  b.IdleJ - o.IdleJ,
		RxJ:    b.RxJ - o.RxJ,
		TxJ:    b.TxJ - o.TxJ,
		SleepJ: b.SleepJ - o.SleepJ,
	}
}

// Meter integrates one node's energy use over simulated time.
type Meter struct {
	profile Profile
	state   State
	since   sim.Time
	acc     Breakdown
}

// NewMeter returns a meter starting in StateIdle at the given instant.
// It is a value, so an owner can hold it inline.
func NewMeter(profile Profile, now sim.Time) Meter {
	return Meter{profile: profile, state: StateIdle, since: now}
}

// SetState accrues energy for the interval spent in the old state and
// switches to s. now must not precede the previous update.
func (m *Meter) SetState(now sim.Time, s State) error {
	if err := m.settle(now); err != nil {
		return err
	}
	m.state = s
	return nil
}

func (m *Meter) settle(now sim.Time) error {
	if now < m.since {
		return fmt.Errorf("energy: time went backwards: %v < %v", now, m.since)
	}
	dt := now.Sub(m.since).Seconds()
	j := m.profile.watts(m.state) * dt
	switch m.state {
	case StateTx:
		m.acc.TxJ += j
	case StateRx:
		m.acc.RxJ += j
	case StateSleep:
		m.acc.SleepJ += j
	default:
		m.acc.IdleJ += j
	}
	m.since = now
	return nil
}

// Snapshot accrues up to now and returns the cumulative breakdown.
func (m *Meter) Snapshot(now sim.Time) (Breakdown, error) {
	if err := m.settle(now); err != nil {
		return Breakdown{}, err
	}
	return m.acc, nil
}
