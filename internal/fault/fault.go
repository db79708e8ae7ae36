// Package fault is a deterministic, seed-reproducible fault-injection
// layer for the simulator. A Scenario describes which fault classes are
// active and with what statistics; an Injector turns the scenario into
// scheduled events against a deployed network: node crash/recovery
// churn, per-node clock drift with sync-loss episodes, mobility-induced
// propagation-delay jumps, transient modem outages, and bursty wideband
// interference.
//
// Every stochastic choice draws from named sim.RNG streams (one per
// fault class, per node where the class is per-node), so enabling one
// fault class never perturbs another and the same seed always yields
// the same fault timeline. Every injection and recovery is emitted on
// the observability bus as an obs.Fault event.
package fault

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// Dur is a time.Duration that marshals as a Go duration string
// ("30s", "1m30s") so scenario JSON stays human-editable.
type Dur time.Duration

// D converts to time.Duration.
func (d Dur) D() time.Duration { return time.Duration(d) }

// MarshalJSON implements json.Marshaler.
func (d Dur) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts either a duration string ("45s") or raw
// nanoseconds for compatibility with mechanically generated files.
func (d *Dur) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("fault: bad duration %q: %w", s, err)
		}
		*d = Dur(v)
		return nil
	}
	var ns int64
	if err := json.Unmarshal(b, &ns); err != nil {
		return fmt.Errorf("fault: duration must be a string or integer nanoseconds: %s", b)
	}
	*d = Dur(ns)
	return nil
}

// ChurnSpec crashes and recovers a fraction of the sensing nodes.
// A crashed node loses all volatile MAC state (negotiations, delay
// table, backoff) and its modem neither transmits nor receives; on
// recovery the protocol cold-starts via its Restart method. Sinks are
// never churned — the paper's sinks are infrastructure.
type ChurnSpec struct {
	// MeanUp / MeanDown are the means of the exponential up- and
	// down-time distributions.
	MeanUp   Dur `json:"mean_up"`
	MeanDown Dur `json:"mean_down"`
	// Fraction of non-sink nodes subject to churn (0..1].
	Fraction float64 `json:"fraction"`
}

// DriftSpec gives a fraction of the nodes imperfect oscillators. Each
// affected node gets a clock with a skew drawn uniformly from
// [-SkewPPM, +SkewPPM] and an initial offset from [-MaxOffset,
// +MaxOffset]. Every SyncEvery the node re-disciplines its clock to
// true time (the paper's assumed synchronization service, §3.1) —
// except during sync-loss episodes, whose onsets are exponential with
// mean LossMeanEvery and whose durations are exponential with mean
// LossMeanDur; while an episode lasts, drift accumulates unchecked.
type DriftSpec struct {
	SkewPPM   float64 `json:"skew_ppm"`
	MaxOffset Dur     `json:"max_offset"`
	SyncEvery Dur     `json:"sync_every"`
	// LossMeanEvery <= 0 disables sync-loss episodes.
	LossMeanEvery Dur     `json:"loss_mean_every"`
	LossMeanDur   Dur     `json:"loss_mean_dur"`
	Fraction      float64 `json:"fraction"`
}

// DelayShiftSpec teleports nodes small distances at exponential
// intervals, modelling current-driven position jumps that invalidate
// the MAC's learned propagation delays faster than its Hello refresh.
type DelayShiftSpec struct {
	MeanEvery Dur `json:"mean_every"`
	// MaxJumpM bounds the per-event displacement in meters.
	MaxJumpM float64 `json:"max_jump_m"`
	Fraction float64 `json:"fraction"`
}

// OutageSpec silences modems transiently (mean inter-arrival
// MeanEvery, mean duration MeanDur). Unlike churn, the MAC keeps its
// state: the node simply cannot hear or be heard for a while.
type OutageSpec struct {
	MeanEvery Dur     `json:"mean_every"`
	MeanDur   Dur     `json:"mean_dur"`
	Fraction  float64 `json:"fraction"`
}

// InterferenceSpec raises the noise floor in bursts: at exponential
// intervals a point in the region is struck and every node within
// RadiusM receives wideband interference at LevelDB for the burst
// duration. RadiusM <= 0 means region-wide.
type InterferenceSpec struct {
	MeanEvery Dur     `json:"mean_every"`
	MeanDur   Dur     `json:"mean_dur"`
	LevelDB   float64 `json:"level_db"`
	RadiusM   float64 `json:"radius_m"`
}

// Scenario is one named fault configuration; nil sub-specs disable
// their fault class. The zero Scenario injects nothing.
type Scenario struct {
	Name         string            `json:"name"`
	Churn        *ChurnSpec        `json:"churn,omitempty"`
	Drift        *DriftSpec        `json:"drift,omitempty"`
	DelayShift   *DelayShiftSpec   `json:"delay_shift,omitempty"`
	Outage       *OutageSpec       `json:"outage,omitempty"`
	Interference *InterferenceSpec `json:"interference,omitempty"`
}

// Parse decodes a scenario from JSON and validates it.
func Parse(b []byte) (*Scenario, error) {
	var s Scenario
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("fault: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Load reads and parses a scenario file.
func Load(path string) (*Scenario, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("fault: %w", err)
	}
	return Parse(b)
}

func checkFraction(class string, f float64) error {
	if f < 0 || f > 1 {
		return fmt.Errorf("fault: %s fraction %v outside [0,1]", class, f)
	}
	return nil
}

// Validate reports the first invalid field.
func (s *Scenario) Validate() error {
	if c := s.Churn; c != nil {
		if c.MeanUp <= 0 || c.MeanDown <= 0 {
			return fmt.Errorf("fault: churn means must be positive (up=%v down=%v)", c.MeanUp.D(), c.MeanDown.D())
		}
		if err := checkFraction("churn", c.Fraction); err != nil {
			return err
		}
	}
	if d := s.Drift; d != nil {
		if d.SkewPPM < 0 || d.SkewPPM >= 1e6 {
			return fmt.Errorf("fault: drift skew bound %v ppm outside [0, 1e6): a clock cannot stop or run backwards", d.SkewPPM)
		}
		if d.MaxOffset < 0 {
			return fmt.Errorf("fault: negative drift offset bound %v", d.MaxOffset.D())
		}
		if d.SyncEvery <= 0 {
			return fmt.Errorf("fault: drift sync_every must be positive, got %v", d.SyncEvery.D())
		}
		if d.LossMeanEvery > 0 && d.LossMeanDur <= 0 {
			return fmt.Errorf("fault: sync-loss episodes need a positive loss_mean_dur")
		}
		if err := checkFraction("drift", d.Fraction); err != nil {
			return err
		}
	}
	if d := s.DelayShift; d != nil {
		if d.MeanEvery <= 0 {
			return fmt.Errorf("fault: delay-shift mean_every must be positive, got %v", d.MeanEvery.D())
		}
		if d.MaxJumpM <= 0 {
			return fmt.Errorf("fault: delay-shift max_jump_m must be positive, got %v", d.MaxJumpM)
		}
		if err := checkFraction("delay-shift", d.Fraction); err != nil {
			return err
		}
	}
	if o := s.Outage; o != nil {
		if o.MeanEvery <= 0 || o.MeanDur <= 0 {
			return fmt.Errorf("fault: outage means must be positive (every=%v dur=%v)", o.MeanEvery.D(), o.MeanDur.D())
		}
		if err := checkFraction("outage", o.Fraction); err != nil {
			return err
		}
	}
	if i := s.Interference; i != nil {
		if i.MeanEvery <= 0 || i.MeanDur <= 0 {
			return fmt.Errorf("fault: interference means must be positive (every=%v dur=%v)", i.MeanEvery.D(), i.MeanDur.D())
		}
	}
	return nil
}

// Active reports whether any fault class is enabled.
func (s *Scenario) Active() bool {
	if s == nil {
		return false
	}
	return s.Churn != nil || s.Drift != nil || s.DelayShift != nil ||
		s.Outage != nil || s.Interference != nil
}
