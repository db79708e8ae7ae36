// Package adversary searches fault-scenario space for timelines that
// break a resilience invariant, then shrinks any violation to a
// minimal reproducer.
//
// The search is seeded and fully deterministic: a generator draws
// random fault scenarios from aggressive parameter ranges, each
// candidate runs the same base experiment configuration with only
// Config.Faults swapped, and a candidate violates when either
//
//   - delivery-collapse: its delivery ratio falls below a configured
//     fraction of the fault-free baseline's, or
//   - livelock: traffic was generated but nothing was ever delivered.
//
// A violating scenario is then minimized by greedy shrinking — drop
// whole fault classes, then soften the surviving knobs benign-ward —
// re-running after every step and keeping only transformations that
// preserve the violation. The minimized scenario is verified to
// reproduce bit-identically (two runs compare equal) and to survive a
// JSON round-trip through fault.Parse, so the emitted file replays the
// violation exactly via `uansim -faults`.
package adversary

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"ewmac/internal/experiment"
	"ewmac/internal/fault"
	"ewmac/internal/metrics"
)

// maxShrink bounds the greedy shrinking steps.
const maxShrink = 32

// Invariant names for Finding.Invariant.
const (
	InvariantCollapse = "delivery-collapse"
	InvariantLivelock = "livelock"
)

// Options configures a search.
type Options struct {
	// Base is the experiment configuration every candidate runs under;
	// its Faults field is overwritten per candidate (and must be nil —
	// the search generates its own scenarios). Keep Observe nil: the
	// search runs many experiments and wants them cheap.
	Base experiment.Config
	// Trials is how many random scenarios to generate (default 16).
	Trials int
	// Seed drives the scenario generator. Independent of Base.Seed,
	// which stays fixed so candidate runs differ only in their faults.
	Seed int64
	// CollapseFraction f flags a candidate when its delivery ratio is
	// below f × the fault-free baseline's (default 0.25).
	CollapseFraction float64
	// Log, when non-nil, receives one-line progress messages.
	Log func(string)
}

// Finding is one minimized violation.
type Finding struct {
	// Scenario is the minimized fault timeline; marshal it to JSON and
	// it replays via fault.Parse / `uansim -faults`.
	Scenario *fault.Scenario
	// Invariant is which resilience invariant broke.
	Invariant string
	// Detail is a human-readable account of the violation.
	Detail string
	// BaselineRatio is the fault-free delivery ratio; Violating is the
	// full summary of the minimized scenario's run, for replay
	// comparison.
	BaselineRatio float64
	Violating     metrics.Summary
	// Trial is the generator index that first violated; ShrinkSteps is
	// how many simplifications survived; Runs is the total experiment
	// executions the search spent.
	Trial, ShrinkSteps, Runs int
}

type searcher struct {
	opts      Options
	threshold float64
	baseline  metrics.Summary
	runs      int
}

func (s *searcher) logf(format string, args ...any) {
	if s.opts.Log != nil {
		s.opts.Log(fmt.Sprintf(format, args...))
	}
}

func (s *searcher) run(sc *fault.Scenario) (metrics.Summary, error) {
	cfg := s.opts.Base
	cfg.Faults = sc
	s.runs++
	res, err := experiment.Run(cfg)
	if err != nil {
		return metrics.Summary{}, err
	}
	return res.Summary, nil
}

// violation classifies a candidate summary, returning the broken
// invariant (or ok=false when none is).
func (s *searcher) violation(sum metrics.Summary) (inv, detail string, ok bool) {
	if sum.MAC.Generated > 0 && sum.MAC.DeliveredPackets == 0 {
		return InvariantLivelock,
			fmt.Sprintf("generated %d packets, delivered none", sum.MAC.Generated), true
	}
	if sum.DeliveryRatio < s.threshold {
		return InvariantCollapse,
			fmt.Sprintf("delivery ratio %.3f below %.3f (%.0f%% of fault-free %.3f)",
				sum.DeliveryRatio, s.threshold,
				100*s.opts.CollapseFraction, s.baseline.DeliveryRatio), true
	}
	return "", "", false
}

// Search runs the adversarial search. It returns (nil, nil) when no
// generated scenario violates an invariant within the trial budget.
func Search(o Options) (*Finding, error) {
	if o.Trials <= 0 {
		o.Trials = 16
	}
	if o.CollapseFraction <= 0 {
		o.CollapseFraction = 0.25
	}
	if o.Base.Faults.Active() {
		return nil, fmt.Errorf("adversary: Base.Faults must be nil; the search generates its own scenarios")
	}
	s := &searcher{opts: o}

	base, err := s.run(nil)
	if err != nil {
		return nil, fmt.Errorf("adversary: baseline: %w", err)
	}
	if base.DeliveryRatio <= 0 {
		return nil, fmt.Errorf("adversary: fault-free baseline delivers nothing (ratio %v); the search needs a healthy baseline to measure collapse against", base.DeliveryRatio)
	}
	s.baseline = base
	s.threshold = o.CollapseFraction * base.DeliveryRatio
	s.logf("baseline delivery ratio %.3f; collapse threshold %.3f", base.DeliveryRatio, s.threshold)

	rng := rand.New(rand.NewSource(o.Seed))
	for trial := 0; trial < o.Trials; trial++ {
		sc := Generate(rng, o.Seed, trial)
		sum, err := s.run(sc)
		if err != nil {
			return nil, fmt.Errorf("adversary: trial %d: %w", trial, err)
		}
		inv, detail, bad := s.violation(sum)
		s.logf("trial %d/%d: delivery %.3f%s", trial+1, o.Trials, sum.DeliveryRatio,
			map[bool]string{true: " VIOLATION: " + detail}[bad])
		if !bad {
			continue
		}
		f, err := s.shrink(sc, trial)
		if err != nil {
			return nil, err
		}
		f.Invariant, f.Detail = inv, detail
		if inv2, detail2, _ := s.violation(f.Violating); inv2 != "" {
			f.Invariant, f.Detail = inv2, detail2
		}
		return f, nil
	}
	s.logf("no violation in %d trials (%d runs)", o.Trials, s.runs)
	return nil, nil
}

// shrink greedily minimizes sc while it keeps violating, then verifies
// the minimized scenario reproduces deterministically and survives a
// JSON round-trip.
func (s *searcher) shrink(sc *fault.Scenario, trial int) (*Finding, error) {
	cur := clone(sc)
	steps := 0
	for steps < maxShrink {
		shrunk := false
		for _, cand := range candidates(cur, s.opts.Base.SimTime) {
			if !cand.Active() {
				continue
			}
			sum, err := s.run(cand)
			if err != nil {
				return nil, fmt.Errorf("adversary: shrink: %w", err)
			}
			if _, _, bad := s.violation(sum); bad {
				cur = cand
				steps++
				shrunk = true
				break
			}
		}
		if !shrunk {
			break
		}
	}
	cur.Name = fmt.Sprintf("adversary-seed%d-trial%d-min", s.opts.Seed, trial)

	// The reproducer must replay bit-identically: two direct runs must
	// agree, and a run of the JSON round-tripped scenario (what a
	// -faults file replays) must agree with them.
	first, err := s.run(cur)
	if err != nil {
		return nil, fmt.Errorf("adversary: verify: %w", err)
	}
	second, err := s.run(cur)
	if err != nil {
		return nil, fmt.Errorf("adversary: verify: %w", err)
	}
	if first != second {
		return nil, fmt.Errorf("adversary: minimized scenario is nondeterministic: two identical runs diverged")
	}
	b, err := json.Marshal(cur)
	if err != nil {
		return nil, fmt.Errorf("adversary: %w", err)
	}
	rt, err := fault.Parse(b)
	if err != nil {
		return nil, fmt.Errorf("adversary: minimized scenario does not re-parse: %w", err)
	}
	replayed, err := s.run(rt)
	if err != nil {
		return nil, fmt.Errorf("adversary: replay: %w", err)
	}
	if replayed != first {
		return nil, fmt.Errorf("adversary: JSON round-trip changed the run outcome")
	}
	if _, _, bad := s.violation(first); !bad {
		return nil, fmt.Errorf("adversary: minimized scenario no longer violates (shrinker bug)")
	}
	s.logf("minimized in %d steps (%d runs total)", steps, s.runs)
	return &Finding{
		Scenario:      cur,
		BaselineRatio: s.baseline.DeliveryRatio,
		Violating:     first,
		Trial:         trial,
		ShrinkSteps:   steps,
		Runs:          s.runs,
	}, nil
}

// Generate draws one adversarial scenario from aggressive ranges. The
// draw order is fixed, so (rng state, seed, trial) fully determines
// the result.
func Generate(r *rand.Rand, seed int64, trial int) *fault.Scenario {
	sc := &fault.Scenario{Name: fmt.Sprintf("adversary-seed%d-trial%d", seed, trial)}
	if r.Float64() < 0.7 {
		sc.Churn = &fault.ChurnSpec{
			MeanUp:   durBetween(r, 10*time.Second, 60*time.Second),
			MeanDown: durBetween(r, 5*time.Second, 30*time.Second),
			Fraction: between(r, 0.2, 0.9),
		}
	}
	if r.Float64() < 0.5 {
		sc.Drift = &fault.DriftSpec{
			SkewPPM:       between(r, 100, 1000),
			MaxOffset:     durBetween(r, 10*time.Millisecond, 200*time.Millisecond),
			SyncEvery:     durBetween(r, 10*time.Second, 60*time.Second),
			LossMeanEvery: durBetween(r, 20*time.Second, 90*time.Second),
			LossMeanDur:   durBetween(r, 10*time.Second, 60*time.Second),
			Fraction:      between(r, 0.2, 0.9),
		}
	}
	if r.Float64() < 0.5 {
		sc.DelayShift = &fault.DelayShiftSpec{
			MeanEvery: durBetween(r, 10*time.Second, 60*time.Second),
			MaxJumpM:  between(r, 50, 400),
			Fraction:  between(r, 0.2, 0.8),
		}
	}
	if r.Float64() < 0.7 {
		sc.Outage = &fault.OutageSpec{
			MeanEvery: durBetween(r, 15*time.Second, 90*time.Second),
			MeanDur:   durBetween(r, 2*time.Second, 20*time.Second),
			Fraction:  between(r, 0.2, 0.9),
		}
	}
	if r.Float64() < 0.5 {
		radius := between(r, 200, 800)
		if r.Float64() < 0.3 {
			radius = 0 // region-wide
		}
		sc.Interference = &fault.InterferenceSpec{
			MeanEvery: durBetween(r, 10*time.Second, 60*time.Second),
			MeanDur:   durBetween(r, time.Second, 10*time.Second),
			LevelDB:   between(r, 40, 80),
			RadiusM:   radius,
		}
	}
	if !sc.Active() {
		// Every trial must inject something; outage is the mildest
		// always-sensible fallback.
		sc.Outage = &fault.OutageSpec{
			MeanEvery: durBetween(r, 15*time.Second, 60*time.Second),
			MeanDur:   durBetween(r, 2*time.Second, 20*time.Second),
			Fraction:  between(r, 0.3, 0.9),
		}
	}
	return sc
}

// Soften floors: a knob already at or below its floor is no longer
// offered for halving (the drop-the-class candidate covers "make it
// negligible"), and inter-arrival means are not doubled past the run
// length. Without these bounds, halving a fraction shrinks forever
// without ever reaching zero and the shrinker burns its step budget on
// noise.
const (
	minFraction = 0.05
	minDur      = fault.Dur(500 * time.Millisecond)
	minSkewPPM  = 10
	minJumpM    = 10
	minLevelDB  = 5
)

// candidates lists one-step simplifications of sc, most aggressive
// first: dropping a whole fault class beats softening one knob.
// simLen bounds inter-arrival doubling.
func candidates(sc *fault.Scenario, simLen time.Duration) []*fault.Scenario {
	var out []*fault.Scenario
	mutate := func(f func(*fault.Scenario)) {
		c := clone(sc)
		f(c)
		out = append(out, c)
	}
	maxEvery := fault.Dur(simLen)
	if sc.Churn != nil {
		mutate(func(c *fault.Scenario) { c.Churn = nil })
	}
	if sc.Drift != nil {
		mutate(func(c *fault.Scenario) { c.Drift = nil })
	}
	if sc.DelayShift != nil {
		mutate(func(c *fault.Scenario) { c.DelayShift = nil })
	}
	if sc.Outage != nil {
		mutate(func(c *fault.Scenario) { c.Outage = nil })
	}
	if sc.Interference != nil {
		mutate(func(c *fault.Scenario) { c.Interference = nil })
	}
	if ch := sc.Churn; ch != nil {
		if ch.Fraction > minFraction {
			mutate(func(c *fault.Scenario) { c.Churn.Fraction /= 2 })
		}
		if ch.MeanDown > minDur {
			mutate(func(c *fault.Scenario) { c.Churn.MeanDown /= 2 })
		}
		if ch.MeanUp < maxEvery {
			mutate(func(c *fault.Scenario) { c.Churn.MeanUp *= 2 })
		}
	}
	if d := sc.Drift; d != nil {
		if d.LossMeanEvery > 0 {
			mutate(func(c *fault.Scenario) { c.Drift.LossMeanEvery, c.Drift.LossMeanDur = 0, 0 })
		}
		if d.SkewPPM > minSkewPPM {
			mutate(func(c *fault.Scenario) { c.Drift.SkewPPM /= 2 })
		}
		if d.Fraction > minFraction {
			mutate(func(c *fault.Scenario) { c.Drift.Fraction /= 2 })
		}
	}
	if ds := sc.DelayShift; ds != nil {
		if ds.Fraction > minFraction {
			mutate(func(c *fault.Scenario) { c.DelayShift.Fraction /= 2 })
		}
		if ds.MaxJumpM > minJumpM {
			mutate(func(c *fault.Scenario) { c.DelayShift.MaxJumpM /= 2 })
		}
		if ds.MeanEvery < maxEvery {
			mutate(func(c *fault.Scenario) { c.DelayShift.MeanEvery *= 2 })
		}
	}
	if o := sc.Outage; o != nil {
		if o.Fraction > minFraction {
			mutate(func(c *fault.Scenario) { c.Outage.Fraction /= 2 })
		}
		if o.MeanDur > minDur {
			mutate(func(c *fault.Scenario) { c.Outage.MeanDur /= 2 })
		}
		if o.MeanEvery < maxEvery {
			mutate(func(c *fault.Scenario) { c.Outage.MeanEvery *= 2 })
		}
	}
	if in := sc.Interference; in != nil {
		if in.MeanDur > minDur {
			mutate(func(c *fault.Scenario) { c.Interference.MeanDur /= 2 })
		}
		if in.MeanEvery < maxEvery {
			mutate(func(c *fault.Scenario) { c.Interference.MeanEvery *= 2 })
		}
		if in.LevelDB > minLevelDB {
			mutate(func(c *fault.Scenario) { c.Interference.LevelDB /= 2 })
		}
	}
	return out
}

// clone deep-copies a scenario so shrink candidates never alias.
func clone(sc *fault.Scenario) *fault.Scenario {
	c := *sc
	if sc.Churn != nil {
		v := *sc.Churn
		c.Churn = &v
	}
	if sc.Drift != nil {
		v := *sc.Drift
		c.Drift = &v
	}
	if sc.DelayShift != nil {
		v := *sc.DelayShift
		c.DelayShift = &v
	}
	if sc.Outage != nil {
		v := *sc.Outage
		c.Outage = &v
	}
	if sc.Interference != nil {
		v := *sc.Interference
		c.Interference = &v
	}
	return &c
}

func durBetween(r *rand.Rand, lo, hi time.Duration) fault.Dur {
	if hi <= lo {
		return fault.Dur(lo)
	}
	return fault.Dur(lo + time.Duration(r.Int63n(int64(hi-lo))))
}

func between(r *rand.Rand, lo, hi float64) float64 {
	return lo + r.Float64()*(hi-lo)
}
