package experiment

import (
	"errors"
	"io"
	"runtime"
	"testing"
	"time"

	"ewmac/internal/acoustic"
	"ewmac/internal/mac"
	"ewmac/internal/obs"
	"ewmac/internal/sim"
)

// TestStagedExactlyWithTraceOrVerify: a run stages its events on an
// observer goroutine exactly when the trace or the verifier is on.
// Observability off, the report, the resilience tracker, a custom
// recorder, the time series, the span assembler and the slot profiler
// stay inline: staging an event costs them more than recording it
// does.
func TestStagedExactlyWithTraceOrVerify(t *testing.T) {
	noop := obs.RecorderFunc(func(sim.Time, obs.Event) {})
	cases := []struct {
		name    string
		observe *Observe
		tracker bool
		staged  bool
	}{
		{"off", nil, false, false},
		{"report", &Observe{Report: true}, false, false},
		{"recorder", &Observe{Recorder: noop}, false, false},
		{"report+recorder+tracker", &Observe{Report: true, Recorder: noop}, true, false},
		{"time series", &Observe{TimeSeries: io.Discard}, false, false},
		{"trace", &Observe{Trace: io.Discard}, false, true},
		{"spans", &Observe{Spans: io.Discard}, false, false},
		{"slot profile", &Observe{SlotProfile: io.Discard}, false, false},
		{"spans+slot profile+report", &Observe{Spans: io.Discard, SlotProfile: io.Discard, Report: true}, true, false},
		{"verify", &Observe{Verify: true}, false, true},
		{"trace+spans+slot profile", &Observe{Trace: io.Discard, Spans: io.Discard, SlotProfile: io.Discard}, false, true},
	}
	model := acoustic.DefaultModel()
	slots := mac.SlotConfig{Omega: time.Millisecond, TauMax: model.MaxDelay()}
	for _, c := range cases {
		cfg := Default(ProtocolEWMAC)
		cfg.Observe = c.observe
		var extra []obs.Recorder
		if c.tracker {
			extra = append(extra, noop)
		}
		ro := newRunObs(cfg, slots, model, extra...)
		if got := ro.stager != nil; got != c.staged {
			t.Errorf("%s: staged = %v, want %v", c.name, got, c.staged)
		}
		if ro.stager != nil && ro.rec != ro.stager {
			t.Errorf("%s: the simulation does not record into the stager", c.name)
		}
		ro.stop()
	}
}

// observedConfig is a short traced and verified run.
func observedConfig(rec obs.Recorder) Config {
	cfg := Default(ProtocolEWMAC)
	cfg.SimTime = 40 * time.Second
	cfg.Observe = &Observe{Trace: io.Discard, Verify: true, Report: true, Recorder: rec}
	return cfg
}

// runRecovering runs cfg and returns its error, or the panic it raised.
func runRecovering(cfg Config) (err error, panicked any) {
	defer func() { panicked = recover() }()
	_, err = Run(cfg)
	return err, nil
}

// TestObservedRunLeavesNoGoroutine: a traced and verified run stops
// its observer goroutine whether it completes, aborts on its budget,
// or dies of a recorder's panic.
func TestObservedRunLeavesNoGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	settle := func(what string) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines after the run, %d before", what, runtime.NumGoroutine(), base)
			}
			time.Sleep(time.Millisecond)
		}
	}

	if err, p := runRecovering(observedConfig(nil)); err != nil || p != nil {
		t.Fatalf("normal run: err %v, panic %v", err, p)
	}
	settle("normal run")

	cfg := observedConfig(nil)
	cfg.Budget = sim.Budget{MaxEvents: 5_000}
	err, p := runRecovering(cfg)
	var be *sim.BudgetError
	if !errors.As(err, &be) || p != nil {
		t.Fatalf("budget run: err %v, panic %v; want a budget abort", err, p)
	}
	settle("budget-aborted run")

	n := 0
	cfg = observedConfig(obs.RecorderFunc(func(sim.Time, obs.Event) {
		if n++; n == 5000 {
			panic("recorder broke")
		}
	}))
	err, p = runRecovering(cfg)
	if rp, ok := p.(*obs.RecorderPanic); !ok || rp.Value != "recorder broke" || err != nil {
		t.Fatalf("panicking run: err %v, panic %v (%T); want the recorder's panic", err, p, p)
	}
	settle("panicking run")
}
