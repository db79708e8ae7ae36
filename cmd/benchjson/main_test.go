package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"ewmac"
	"ewmac/internal/obs"
)

func TestAllocsRegressed(t *testing.T) {
	for _, tc := range []struct {
		old, cur  int64
		threshold float64
		want      bool
	}{
		{0, 0, 10, false},
		{0, 1, 10, true}, // a zero-alloc row has no percentage to hide behind
		{0, 1, 1000, true},
		{100, 110, 10, false},
		{100, 111, 10, true},
		{100, 50, 10, false},
	} {
		if got := allocsRegressed(tc.old, tc.cur, tc.threshold); got != tc.want {
			t.Errorf("allocsRegressed(%d, %d, %v) = %v, want %v", tc.old, tc.cur, tc.threshold, got, tc.want)
		}
	}
}

func TestCompareGatesZeroAllocBaseline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "base.json")
	base := []result{
		{Name: "engine/schedule-run", NsPerOp: 1000, AllocsPerOp: 0},
		{Name: "channel/broadcast-40", NsPerOp: 1000, AllocsPerOp: 1},
	}
	if err := writeResults(path, base); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name           string
		engineAllocs   int64
		allocThreshold float64
		want           bool
	}{
		{"still zero", 0, 10, false},
		{"starts allocating", 1, 10, true},
		{"gate disabled", 1, 0, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cur := []result{
				{Name: "engine/schedule-run", NsPerOp: 1000, AllocsPerOp: tc.engineAllocs},
				{Name: "channel/broadcast-40", NsPerOp: 1000, AllocsPerOp: 1},
			}
			got, err := compareResults(path, cur, 50, tc.allocThreshold)
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Errorf("regressed = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestCompareGatesObsOffBytes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "base.json")
	base := []result{
		{Name: "channel/broadcast-40", NsPerOp: 1000, AllocsPerOp: 1, BytesPerOp: 112},
		{Name: "ewmac/obs-off", NsPerOp: 1000, AllocsPerOp: 100, BytesPerOp: 1000},
		{Name: "ewmac/obs-on", NsPerOp: 1000, AllocsPerOp: 100, BytesPerOp: 1000},
	}
	if err := writeResults(path, base); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name                     string
		channelBytes, off, obsOn int64
		allocThreshold           float64
		want                     bool
	}{
		{"within threshold", 112, 1100, 1000, 10, false},
		{"obs-off bytes grow", 112, 1101, 1000, 10, true},
		{"other rows' bytes are not gated", 500, 1000, 5000, 10, false},
		{"gate disabled", 112, 5000, 1000, 0, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cur := []result{
				{Name: "channel/broadcast-40", NsPerOp: 1000, AllocsPerOp: 1, BytesPerOp: tc.channelBytes},
				{Name: "ewmac/obs-off", NsPerOp: 1000, AllocsPerOp: 100, BytesPerOp: tc.off},
				{Name: "ewmac/obs-on", NsPerOp: 1000, AllocsPerOp: 100, BytesPerOp: tc.obsOn},
			}
			got, err := compareResults(path, cur, 50, tc.allocThreshold)
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Errorf("regressed = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestReadResultsBothShapes reads a stamped file and a bare result
// array, the shape of every baseline before BENCH_16.json.
func TestReadResultsBothShapes(t *testing.T) {
	dir := t.TempDir()
	rows := []result{
		{Name: "engine/schedule-run", NsPerOp: 1000, BytesPerOp: 19, EventsPerSec: 5e6, Iterations: 10},
		{Name: "ewmac/obs-off", NsPerOp: 2e7, AllocsPerOp: 4000, BytesPerOp: 1500000, Iterations: 3},
	}
	stamped := filepath.Join(dir, "stamped.json")
	if err := writeResults(stamped, rows); err != nil {
		t.Fatal(err)
	}
	legacy := filepath.Join(dir, "legacy.json")
	raw, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(legacy, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{stamped, legacy} {
		got, err := readResults(path)
		if err != nil {
			t.Fatalf("%s: %v", filepath.Base(path), err)
		}
		if !reflect.DeepEqual(got, rows) {
			t.Errorf("%s: read %+v, want %+v", filepath.Base(path), got, rows)
		}
		if _, err := compareResults(path, rows, 5, 10); err != nil {
			t.Errorf("%s: compare: %v", filepath.Base(path), err)
		}
	}

	raw, err = os.ReadFile(stamped)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Env.GoVersion != runtime.Version() || rep.Env.GOMAXPROCS != runtime.GOMAXPROCS(0) || rep.Env.CPUModel == "" {
		t.Errorf("env stamp = %+v", rep.Env)
	}

	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, []byte(`{"env": {}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readResults(empty); err == nil {
		t.Error("a file with no results parsed")
	}
}

func TestEventRateIsTotalOverTotal(t *testing.T) {
	var r eventRate
	r.add(nil) // observability off: no report, no data
	if got := r.perSec(); got != 0 {
		t.Fatalf("empty rate = %v, want 0", got)
	}
	// 100 events in 1 s, then 300 events in 1 s: 400 events over 2 s.
	r.add(&obs.RunReport{EngineEvents: 100, EngineEventsPerS: 100})
	r.add(&obs.RunReport{EngineEvents: 300, EngineEventsPerS: 300})
	if got := r.perSec(); got != 200 {
		t.Fatalf("rate = %v, want 200 (not the last run's 300)", got)
	}
}

func TestPerRunDividesOp(t *testing.T) {
	got := perRun(result{Name: "x", NsPerOp: 400, AllocsPerOp: 4002, BytesPerOp: 801, Iterations: 3}, 4)
	want := result{Name: "x", NsPerOp: 100, AllocsPerOp: 1001, BytesPerOp: 200, Iterations: 3}
	if got != want {
		t.Fatalf("perRun = %+v, want %+v", got, want)
	}
}

// TestScenarioOpRepeats pins the b.N independence of scenario rows:
// every op runs the same seeds, so two ops do identical work. When
// iteration i ran seed i+1, the second op simulated a different run.
func TestScenarioOpRepeats(t *testing.T) {
	observe := &ewmac.Observe{Report: true}
	var first, second eventRate
	if err := scenarioOp(observe, &first); err != nil {
		t.Fatal(err)
	}
	if err := scenarioOp(observe, &second); err != nil {
		t.Fatal(err)
	}
	if first.events == 0 || first.events != second.events {
		t.Fatalf("ops ran %d and %d events, want equal and nonzero", first.events, second.events)
	}
}
