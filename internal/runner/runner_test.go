package runner

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"ewmac/internal/experiment"
	"ewmac/internal/metrics"
	"ewmac/internal/obs"
	"ewmac/internal/sim"
)

func keysFor(sweep string, protocols []string, xs []float64) []Key {
	var keys []Key
	for _, p := range protocols {
		for _, x := range xs {
			keys = append(keys, Key{Sweep: sweep, Protocol: p, X: x})
		}
	}
	return keys
}

// TestSweepPanicQuarantine: a panicking point, a livelocked point and
// a point returning a plain error are each quarantined on their one
// and only call, while every other point completes. Every point runs
// under the configured budget with the livelock watchdog armed.
func TestSweepPanicQuarantine(t *testing.T) {
	keys := keysFor("fig", []string{"ewmac", "sfama"}, []float64{1, 2, 3})
	bad := Key{Sweep: "fig", Protocol: "sfama", X: 2}
	spin := Key{Sweep: "fig", Protocol: "ewmac", X: 3}
	plain := Key{Sweep: "fig", Protocol: "sfama", X: 3}
	for _, budget := range []sim.Budget{{}, {MaxEvents: 1 << 22}} {
		var (
			mu      sync.Mutex
			calls   = map[Key]int{}
			spinErr error
		)
		run := func(k Key, b sim.Budget) (metrics.Summary, error) {
			mu.Lock()
			calls[k]++
			mu.Unlock()
			if b.LivelockEvents != sim.DefaultLivelockEvents || b.MaxEvents != budget.MaxEvents {
				t.Errorf("%v received budget %+v, want MaxEvents %d with the livelock watchdog armed", k, b, budget.MaxEvents)
			}
			switch k {
			case bad:
				panic("synthetic point failure")
			case spin:
				// A self-rescheduling event at one instant: the engine
				// spins until the watchdog aborts it.
				e := sim.NewEngine(1)
				e.SetBudget(b)
				var loop func()
				loop = func() { e.ScheduleAt(e.Now(), sim.PriorityMAC, loop) }
				e.ScheduleAt(0, sim.PriorityMAC, loop)
				e.Run()
				spinErr = e.BudgetErr()
				return metrics.Summary{}, spinErr
			case plain:
				return metrics.Summary{}, errors.New("config rejected")
			}
			return metrics.Summary{ThroughputKbps: k.X}, nil
		}
		recs, stats, err := Sweep(keys, run, Options{Workers: 2, Budget: budget})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Points != 6 || stats.Completed != 3 || stats.Quarantined != 3 {
			t.Fatalf("stats = %+v, want 6 points: 3 completed / 3 quarantined", stats)
		}
		if !errors.Is(spinErr, sim.ErrBudgetExceeded) {
			t.Errorf("livelocked point returned %v, want sim.ErrBudgetExceeded", spinErr)
		}
		for i, r := range recs {
			if r.Key != keys[i] {
				t.Fatalf("record %d out of order: %v != %v", i, r.Key, keys[i])
			}
			if calls[r.Key] != 1 {
				t.Errorf("%v was called %d times, want 1 (no retry)", r.Key, calls[r.Key])
			}
			switch r.Key {
			case bad:
				if r.Status != StatusFailed || !r.Panicked {
					t.Errorf("bad point record = %+v, want failed+panicked", r)
				}
				if !strings.Contains(r.Error, "synthetic point failure") {
					t.Errorf("quarantine error %q lacks panic value", r.Error)
				}
				if !strings.Contains(r.Stack, "runner") {
					t.Errorf("quarantine record has no stack: %q", r.Stack)
				}
			case spin:
				if r.Status != StatusFailed || r.Panicked || spinErr == nil || r.Error != spinErr.Error() {
					t.Errorf("livelocked point record = %+v, want failed with %v", r, spinErr)
				}
			case plain:
				if r.Status != StatusFailed || r.Panicked || r.Error != "config rejected" {
					t.Errorf("plain-error record = %+v, want failed with its error", r)
				}
			default:
				if r.Status != StatusDone || r.Summary == nil || r.Summary.ThroughputKbps != r.X {
					t.Errorf("good point %v record = %+v", r.Key, r)
				}
			}
		}
	}
}

// TestSupervisePanicInRunMean: a panic inside a simulation run reached
// through experiment.RunMean is quarantined end to end, with a stack
// naming the run, on the point's one call.
func TestSupervisePanicInRunMean(t *testing.T) {
	cfg := experiment.Default(experiment.ProtocolEWMAC)
	cfg.SimTime = 20 * time.Second
	cfg.Observe = &experiment.Observe{
		Recorder: obs.RecorderFunc(func(sim.Time, obs.Event) { panic("recorder corrupted") }),
	}
	calls := 0
	run := func(Key, sim.Budget) (metrics.Summary, error) {
		calls++
		return experiment.RunMean(cfg, []int64{1, 2})
	}
	rec := Supervise(Key{Sweep: "s", Protocol: "p"}, run, Options{})
	if calls != 1 {
		t.Errorf("panicking point was called %d times, want 1 (no retry)", calls)
	}
	if rec.Status != StatusFailed || !rec.Panicked {
		t.Errorf("record = %+v, want failed+panicked", rec)
	}
	if !strings.Contains(rec.Error, "recorder corrupted") {
		t.Errorf("quarantine error %q lacks panic value", rec.Error)
	}
	if !strings.Contains(rec.Stack, "experiment.Run(") {
		t.Errorf("quarantine stack does not name experiment.Run:\n%s", rec.Stack)
	}
}

// TestSuperviseRetryBudget: a budget abort is not retried. The point
// runs once under the configured budget, unscaled and with the livelock
// watchdog armed, and its record is quarantined with the budget error.
func TestSuperviseRetryBudget(t *testing.T) {
	var budgets []sim.Budget
	var abort error
	run := func(_ Key, b sim.Budget) (metrics.Summary, error) {
		budgets = append(budgets, b)
		abort = &sim.BudgetError{Reason: sim.BudgetMaxEvents, Events: b.MaxEvents}
		return metrics.Summary{}, abort
	}
	var events []string
	rec := Supervise(Key{Sweep: "s", Protocol: "p"}, run, Options{
		Budget:  sim.Budget{MaxEvents: 100},
		OnEvent: func(s string) { events = append(events, s) },
	})
	if len(budgets) != 1 {
		t.Fatalf("budget-aborted point was called %d times, want 1 (no retry)", len(budgets))
	}
	if b := budgets[0]; b.MaxEvents != 100 || b.LivelockEvents != sim.DefaultLivelockEvents {
		t.Errorf("budget = %+v, want MaxEvents 100 with the livelock watchdog armed", b)
	}
	if !errors.Is(abort, sim.ErrBudgetExceeded) {
		t.Fatalf("%v does not wrap sim.ErrBudgetExceeded", abort)
	}
	if rec.Status != StatusFailed || rec.Panicked || rec.Summary != nil || rec.Error != abort.Error() {
		t.Errorf("record = %+v, want failed with %q", rec, abort)
	}
	if len(events) != 1 || !strings.Contains(events[0], "QUARANTINED") {
		t.Errorf("events = %q, want one quarantine line", events)
	}
}

// TestSuperviseRetriesExhausted: a point that never fits its budget and
// a point returning a plain error are each quarantined after exactly
// one call.
func TestSuperviseRetriesExhausted(t *testing.T) {
	calls := 0
	alwaysAbort := func(Key, sim.Budget) (metrics.Summary, error) {
		calls++
		return metrics.Summary{}, &sim.BudgetError{Reason: sim.BudgetDeadline}
	}
	rec := Supervise(Key{}, alwaysAbort, Options{})
	if calls != 1 || rec.Status != StatusFailed || rec.Panicked || !strings.Contains(rec.Error, sim.BudgetDeadline) {
		t.Errorf("always-aborting record = %+v after %d calls, want failed on the one call", rec, calls)
	}

	calls = 0
	plainErr := func(Key, sim.Budget) (metrics.Summary, error) {
		calls++
		return metrics.Summary{}, errors.New("config rejected")
	}
	rec = Supervise(Key{}, plainErr, Options{})
	if calls != 1 || rec.Status != StatusFailed || rec.Panicked || rec.Error != "config rejected" {
		t.Errorf("plain-error record = %+v after %d calls, want failed with no retry", rec, calls)
	}
}
