package figures

import (
	"math"
	"strings"
	"testing"
	"time"

	"ewmac/internal/experiment"
	"ewmac/internal/metrics"
	"ewmac/internal/sim"
)

func quickOpts() Options {
	return Options{Seeds: []int64{1}, SimTime: 60 * time.Second}
}

func TestSweepMachinery(t *testing.T) {
	var progress []string
	opts := quickOpts()
	opts.Progress = func(s string) { progress = append(progress, s) }
	tab, err := sweep("Figure X", "test sweep", "load(kbps)", "kbps",
		[]float64{0.3, 0.2}, opts,
		func(p experiment.Protocol, x float64) experiment.Config {
			cfg := experiment.Default(p)
			cfg.OfferedLoadKbps = x
			return cfg
		},
		func(s, _ metrics.Summary) float64 { return s.ThroughputKbps }, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.X) != 2 || tab.X[0] != 0.2 || tab.X[1] != 0.3 {
		t.Fatalf("X not sorted: %v", tab.X)
	}
	for _, p := range tab.Protocols {
		ys := tab.Y[p]
		if len(ys) != 2 {
			t.Fatalf("%s series has %d points", p, len(ys))
		}
		for _, y := range ys {
			if y <= 0 {
				t.Errorf("%s produced non-positive throughput %v", p, y)
			}
		}
	}
	if len(progress) != 2*len(tab.Protocols) {
		t.Errorf("progress lines = %d, want %d", len(progress), 2*len(tab.Protocols))
	}
}

func TestRenderAndCSV(t *testing.T) {
	tab := &Table{
		ID: "Figure 6", Title: "Throughput", XLabel: "load(kbps)", YLabel: "kbps",
		Protocols: []experiment.Protocol{experiment.ProtocolSFAMA, experiment.ProtocolEWMAC},
		X:         []float64{0.1, 0.2},
		Y: map[experiment.Protocol][]float64{
			experiment.ProtocolSFAMA: {0.10, 0.15},
			experiment.ProtocolEWMAC: {0.11, 0.21},
		},
	}
	out := tab.Render()
	for _, want := range []string{"Figure 6", "S-FAMA", "EW-MAC", "0.2100"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q:\n%s", want, out)
		}
	}
	csv := tab.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV has %d lines", len(lines))
	}
	if lines[0] != "load(kbps),S-FAMA,EW-MAC" {
		t.Errorf("CSV header = %q", lines[0])
	}
	if lines[2] != "0.2,0.15,0.21" {
		t.Errorf("CSV row = %q", lines[2])
	}
}

func TestTable2MentionsParameters(t *testing.T) {
	out := Table2()
	for _, want := range []string{"60", "12 kbps", "1.5 km", "64 bits", "2048"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table2 missing %q", want)
		}
	}
}

func TestAllListsEveryFigure(t *testing.T) {
	ids := map[string]bool{}
	for _, f := range All() {
		ids[f.ID] = true
		if f.Run == nil {
			t.Errorf("%s has no runner", f.ID)
		}
	}
	for _, want := range []string{"fig6", "fig7", "fig8", "fig9a", "fig9b", "fig10a", "fig10b", "fig11"} {
		if !ids[want] {
			t.Errorf("All() missing %s", want)
		}
	}
}

func TestFigure6QuickShape(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is seconds-long")
	}
	tab, err := Figure6(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	// At the highest load EW-MAC must lead and S-FAMA trail — the
	// paper's headline.
	last := len(tab.X) - 1
	ew := tab.Y[experiment.ProtocolEWMAC][last]
	sf := tab.Y[experiment.ProtocolSFAMA][last]
	if ew <= sf {
		t.Errorf("EW-MAC %v not above S-FAMA %v at max load", ew, sf)
	}
	// Ratio figures use the S-FAMA baseline: spot-check Figure 11's
	// invariant that S-FAMA is exactly 1 everywhere.
	f11, err := Figure11(Options{Seeds: []int64{1}, SimTime: 45 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range f11.Y[experiment.ProtocolSFAMA] {
		if v != 1 {
			t.Errorf("S-FAMA efficiency index at %v = %v, want 1", f11.X[i], v)
		}
	}
}

// TestSweepQuarantineAssembles: under an impossible budget every point
// is quarantined, yet the figure still assembles — NaN cells, populated
// Failed map, nil error.
func TestSweepQuarantineAssembles(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is seconds-long")
	}
	opts := Options{
		Seeds:   []int64{1},
		SimTime: 30 * time.Second,
		Workers: 2,
		Budget:  sim.Budget{MaxEvents: 10},
	}
	tab, err := testSweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	want := len(tab.X) * len(tab.Protocols)
	if tab.Stats.Quarantined != want {
		t.Fatalf("stats = %+v, want all %d points quarantined", tab.Stats, want)
	}
	if tab.Failed == nil {
		t.Fatal("Failed map empty despite quarantines")
	}
	for _, p := range tab.Protocols {
		for i, y := range tab.Y[p] {
			if !math.IsNaN(y) {
				t.Errorf("%s Y[%d] = %v, want NaN for quarantined cell", p, i, y)
			}
		}
	}
}
