package runner

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
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

// TestSweepPanicQuarantine: one panicking point must be quarantined
// with its stack while every other point completes.
func TestSweepPanicQuarantine(t *testing.T) {
	keys := keysFor("fig", []string{"ewmac", "sfama"}, []float64{1, 2, 3})
	bad := Key{Sweep: "fig", Protocol: "sfama", X: 2}
	run := func(k Key, _ sim.Budget) (metrics.Summary, error) {
		if k == bad {
			panic("synthetic point failure")
		}
		return metrics.Summary{ThroughputKbps: k.X}, nil
	}
	recs, stats, err := Sweep(keys, run, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Completed != 5 || stats.Quarantined != 1 {
		t.Fatalf("stats = %+v, want 5 completed / 1 quarantined", stats)
	}
	for i, r := range recs {
		if r.Key != keys[i] {
			t.Fatalf("record %d out of order: %v != %v", i, r.Key, keys[i])
		}
		if r.Key == bad {
			if r.Status != StatusFailed || !r.Panicked {
				t.Errorf("bad point record = %+v, want failed+panicked", r)
			}
			if !strings.Contains(r.Error, "synthetic point failure") {
				t.Errorf("quarantine error %q lacks panic value", r.Error)
			}
			if !strings.Contains(r.Stack, "runner") {
				t.Errorf("quarantine record has no stack: %q", r.Stack)
			}
			continue
		}
		if r.Status != StatusDone || r.Summary == nil || r.Summary.ThroughputKbps != r.X {
			t.Errorf("good point %v record = %+v", r.Key, r)
		}
	}
}

// TestSupervisePanicInRunMean: a panic inside a simulation run reached
// through experiment.RunMean is quarantined end to end, with a stack
// naming the run, and never retried.
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
	rec, err := Supervise(Key{Sweep: "s", Protocol: "p"}, run, Options{Retries: 5})
	if err != nil {
		t.Fatal(err)
	}
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

// TestSuperviseRetryBudget: budget aborts retry with an exponentially
// loosened budget; success on a later attempt yields a done record
// carrying the retry trace.
func TestSuperviseRetryBudget(t *testing.T) {
	var budgets []sim.Budget
	run := func(_ Key, b sim.Budget) (metrics.Summary, error) {
		budgets = append(budgets, b)
		if len(budgets) < 3 {
			return metrics.Summary{}, &sim.BudgetError{Reason: sim.BudgetMaxEvents, Events: b.MaxEvents}
		}
		return metrics.Summary{ThroughputKbps: 7}, nil
	}
	rec, err := Supervise(Key{Sweep: "s", Protocol: "p"}, run,
		Options{Retries: 3, Budget: sim.Budget{MaxEvents: 100}})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Status != StatusDone || rec.Attempts != 3 || rec.Retries != 2 || rec.BudgetAborts != 2 {
		t.Fatalf("record = %+v, want done after 3 attempts / 2 retries / 2 aborts", rec)
	}
	if len(budgets) != 3 || budgets[0].MaxEvents != 100 || budgets[1].MaxEvents != 200 || budgets[2].MaxEvents != 400 {
		t.Errorf("budgets = %+v, want MaxEvents 100, 200, 400", budgets)
	}
	for _, b := range budgets {
		if b.LivelockEvents != sim.DefaultLivelockEvents {
			t.Errorf("livelock watchdog not armed: %+v", b)
		}
	}
}

// TestSuperviseRetriesExhausted: a point that never fits its budget is
// quarantined after Retries+1 attempts, and plain errors never retry.
func TestSuperviseRetriesExhausted(t *testing.T) {
	calls := 0
	alwaysAbort := func(Key, sim.Budget) (metrics.Summary, error) {
		calls++
		return metrics.Summary{}, &sim.BudgetError{Reason: sim.BudgetDeadline}
	}
	rec, err := Supervise(Key{}, alwaysAbort, Options{Retries: 2})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3 || rec.Status != StatusFailed || rec.BudgetAborts != 3 || rec.Retries != 2 {
		t.Errorf("exhausted record = %+v after %d calls, want failed 3/2/3", rec, calls)
	}

	calls = 0
	plainErr := func(Key, sim.Budget) (metrics.Summary, error) {
		calls++
		return metrics.Summary{}, errors.New("config rejected")
	}
	rec, err = Supervise(Key{}, plainErr, Options{Retries: 4})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 || rec.Status != StatusFailed || rec.Retries != 0 {
		t.Errorf("plain-error record = %+v after %d calls, want failed with no retry", rec, calls)
	}
}

// TestSweepResumeSkips: a second sweep over the same manifest must not
// re-execute completed points, and its records must be byte-identical
// to the first run's.
func TestSweepResumeSkips(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "manifest.jsonl")
	keys := keysFor("fig9", []string{"ewmac", "sfama", "dots"}, []float64{10, 20, 30, 40})

	var calls atomic.Int64
	run := func(k Key, _ sim.Budget) (metrics.Summary, error) {
		calls.Add(1)
		return metrics.Summary{ThroughputKbps: k.X * 2, Nodes: int(k.X)}, nil
	}

	m1, err := OpenManifest(path, "cfg-v1")
	if err != nil {
		t.Fatal(err)
	}
	recs1, _, err := Sweep(keys, run, Options{Workers: 3, Manifest: m1})
	if err != nil {
		t.Fatal(err)
	}
	m1.Close()
	if got := calls.Load(); got != int64(len(keys)) {
		t.Fatalf("first sweep executed %d points, want %d", got, len(keys))
	}

	m2, err := OpenManifest(path, "cfg-v1")
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if m2.Loaded() != len(keys) {
		t.Fatalf("resume loaded %d records, want %d", m2.Loaded(), len(keys))
	}
	recs2, stats2, err := Sweep(keys, run, Options{Workers: 3, Manifest: m2})
	if err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != int64(len(keys)) {
		t.Fatalf("resumed sweep re-executed points: %d total calls", got)
	}
	if stats2.Resumed != len(keys) || stats2.Completed != len(keys) {
		t.Fatalf("resume stats = %+v", stats2)
	}
	for i := range recs1 {
		recs2[i].Resumed = false // reading-run property, not part of the result
		a, _ := json.Marshal(recs1[i])
		b, _ := json.Marshal(recs2[i])
		if string(a) != string(b) {
			t.Errorf("record %d differs after resume:\n  first:  %s\n  resume: %s", i, a, b)
		}
	}
}

// TestResumeRerunsFailedPoints: failed records do not short-circuit —
// a resumed run gets a fresh chance at them.
func TestResumeRerunsFailedPoints(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.jsonl")
	k := Key{Sweep: "s", Protocol: "p", X: 1}

	m1, err := OpenManifest(path, "fp")
	if err != nil {
		t.Fatal(err)
	}
	fail := func(Key, sim.Budget) (metrics.Summary, error) {
		return metrics.Summary{}, errors.New("transient infra issue")
	}
	if _, err := Supervise(k, fail, Options{Manifest: m1}); err != nil {
		t.Fatal(err)
	}
	m1.Close()

	m2, err := OpenManifest(path, "fp")
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	ok := func(Key, sim.Budget) (metrics.Summary, error) {
		return metrics.Summary{ThroughputKbps: 1}, nil
	}
	rec, err := Supervise(k, ok, Options{Manifest: m2})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Status != StatusDone || rec.Resumed {
		t.Errorf("record = %+v, want freshly-executed done", rec)
	}
}

// TestManifestFingerprintMismatch: resuming under a different
// configuration is an error, not a silent splice.
func TestManifestFingerprintMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.jsonl")
	m, err := OpenManifest(path, "fingerprint-a")
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
	if _, err := OpenManifest(path, "fingerprint-b"); !errors.Is(err, ErrManifestMismatch) {
		t.Fatalf("mismatched resume returned %v, want ErrManifestMismatch", err)
	}
}

// TestManifestTornTail: a journal whose last line was torn by a kill
// resumes cleanly — intact records load, the torn one is dropped and
// its point re-executes, and the repaired journal parses line-by-line.
func TestManifestTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.jsonl")
	m1, err := OpenManifest(path, "fp")
	if err != nil {
		t.Fatal(err)
	}
	ok := func(k Key, _ sim.Budget) (metrics.Summary, error) {
		return metrics.Summary{ThroughputKbps: k.X}, nil
	}
	k1 := Key{Sweep: "s", Protocol: "p", X: 1}
	k2 := Key{Sweep: "s", Protocol: "p", X: 2}
	if _, err := Supervise(k1, ok, Options{Manifest: m1}); err != nil {
		t.Fatal(err)
	}
	m1.Close()

	f, _ := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	f.WriteString(`{"sweep":"s","protocol":"p","x":2,"sta`)
	f.Close()

	m2, err := OpenManifest(path, "fp")
	if err != nil {
		t.Fatal(err)
	}
	if m2.Loaded() != 1 {
		t.Fatalf("loaded %d records from torn journal, want 1", m2.Loaded())
	}
	if rec, ok2 := m2.Lookup(k1); !ok2 || rec.Status != StatusDone {
		t.Fatalf("intact record lost: %+v %v", rec, ok2)
	}
	calls := 0
	counted := func(k Key, b sim.Budget) (metrics.Summary, error) { calls++; return ok(k, b) }
	if _, err := Supervise(k2, counted, Options{Manifest: m2}); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("torn point executed %d times, want 1 (torn record must not resume)", calls)
	}
	m2.Close()

	raw, _ := os.ReadFile(path)
	lines := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(lines) != 3 { // header + k1 + re-run k2
		t.Fatalf("repaired journal has %d lines: %q", len(lines), raw)
	}
	for i, line := range lines {
		var v map[string]any
		if err := json.Unmarshal([]byte(line), &v); err != nil {
			t.Errorf("line %d unparseable after repair: %q", i, line)
		}
	}
}

// TestManifestTornHeader: a file killed before the header landed is
// reseeded, not rejected.
func TestManifestTornHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.jsonl")
	if err := os.WriteFile(path, []byte(`{"manifest_ver`), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := OpenManifest(path, "fp")
	if err != nil {
		t.Fatal(err)
	}
	k := Key{Sweep: "s", Protocol: "p", X: 1}
	ok := func(Key, sim.Budget) (metrics.Summary, error) { return metrics.Summary{}, nil }
	if _, err := Supervise(k, ok, Options{Manifest: m}); err != nil {
		t.Fatal(err)
	}
	m.Close()

	m2, err := OpenManifest(path, "fp")
	if err != nil {
		t.Fatalf("reseeded manifest did not resume: %v", err)
	}
	defer m2.Close()
	if m2.Loaded() != 1 {
		t.Errorf("loaded %d records after reseed, want 1", m2.Loaded())
	}
}
