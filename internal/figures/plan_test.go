package figures

import (
	"math"
	"testing"
	"time"

	"ewmac/internal/experiment"
	"ewmac/internal/metrics"
)

// Planning all nine figures together runs each distinct point once, and
// every figure's table is the one its own run produces.
func TestPlanAllFiguresDedupes(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	opts := Options{Seeds: []int64{1}, SimTime: 60 * time.Second}
	tabs, stats := plan(specs, opts)
	cells := 0
	for _, tab := range tabs {
		cells += tab.Stats.Points
	}
	if cells != 220 || stats.Points != 140 || stats.Completed != 140 {
		t.Fatalf("%d cells, plan stats %+v; want 220 cells over 140 completed points", cells, stats)
	}
	for i, s := range specs {
		alone, err := s.run(opts)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := tabs[i].CSV(), alone.CSV(); got != want {
			t.Errorf("%s planned with the others:\n%s\nplanned alone:\n%s", s.name, got, want)
		}
		if tabs[i].Stats != alone.Stats {
			t.Errorf("%s stats %+v, alone %+v", s.name, tabs[i].Stats, alone.Stats)
		}
	}
}

// A failing point that two figures share is NaN in both and counted
// once in the plan's stats.
func TestPlanSharedQuarantineCountedOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// A negative load fails validation, so x=-1 fails for every
	// protocol; both figures use those four points.
	a := &spec{id: "Figure A", xlabel: "load(kbps)", xs: []float64{-1, 0.3},
		set: setSmallLoad, reduce: throughput}
	b := &spec{id: "Figure B", xlabel: "load(kbps)", xs: []float64{-1},
		set: setSmallLoad, reduce: metrics.OverheadRatio, needBaseline: true}
	tabs, stats := plan([]*spec{a, b}, Options{Seeds: []int64{1}, SimTime: 30 * time.Second})
	np := len(experiment.Protocols)
	if stats.Points != 2*np || stats.Quarantined != np {
		t.Fatalf("plan stats %+v, want %d points with %d quarantined", stats, 2*np, np)
	}
	for _, tab := range tabs {
		if tab.Stats.Quarantined != np {
			t.Errorf("%s stats %+v, want %d quarantined cells", tab.ID, tab.Stats, np)
		}
		for _, p := range tab.Protocols {
			if y := tab.Y[p][0]; !math.IsNaN(y) {
				t.Errorf("%s %s at x=-1 = %v, want NaN", tab.ID, p, y)
			}
			if len(tab.Failed[p]) != 1 {
				t.Errorf("%s %s failures %q, want one", tab.ID, p, tab.Failed[p])
			}
		}
	}
	for _, p := range tabs[0].Protocols {
		if y := tabs[0].Y[p][1]; math.IsNaN(y) {
			t.Errorf("Figure A %s at x=0.3 = NaN, want a completed throughput", p)
		}
	}
}
