package figures

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"ewmac/internal/experiment"
	"ewmac/internal/metrics"
)

// testSpec is a tiny two-point figure with a baseline-relative
// reduction, so the tests cover both raw and ratio assembly paths.
var testSpec = &spec{
	id: "Figure T", title: "parallel equivalence probe", xlabel: "load(kbps)", ylabel: "ratio",
	xs:     []float64{0.3, 0.6},
	set:    setSmallLoad,
	reduce: metrics.OverheadRatio, needBaseline: true,
}

// setSmallLoad sets up a 16-sensor, 2-sink network at load x.
func setSmallLoad(cfg *experiment.Config, x float64) {
	cfg.Nodes = 16
	cfg.Sinks = 2
	cfg.OfferedLoadKbps = x
}

func testSweep(opts Options) (*Table, error) { return testSpec.run(opts) }

// A sweep must produce the identical table whether its points run one
// at a time on one CPU or fanned out across many — per-run seeds and
// the assembly order, not goroutine scheduling, define the result.
func TestSweepParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	opts := Options{Seeds: []int64{1, 2}, SimTime: 40 * time.Second}

	prev := runtime.GOMAXPROCS(1)
	serialOpts := opts
	serialOpts.Workers = 1
	serial, err := testSweep(serialOpts)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		t.Fatal(err)
	}

	runtime.GOMAXPROCS(4)
	parOpts := opts
	parOpts.Workers = 4
	parallel, perr := testSweep(parOpts)
	runtime.GOMAXPROCS(prev)
	if perr != nil {
		t.Fatal(perr)
	}

	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("serial and parallel sweeps diverged:\nserial:\n%s\nparallel:\n%s",
			serial.Render(), parallel.Render())
	}
}

// Progress lines must arrive in deterministic order even when points
// complete out of order.
func TestSweepProgressOrderDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var lines []string
	opts := Options{
		Seeds:    []int64{1},
		SimTime:  30 * time.Second,
		Workers:  4,
		Progress: func(s string) { lines = append(lines, s) },
	}
	tab, err := testSweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	want := len(tab.X) * len(tab.Protocols)
	if len(lines) != want {
		t.Fatalf("got %d progress lines, want %d", len(lines), want)
	}
	// x-major, protocol-column-minor order.
	i := 0
	for _, x := range tab.X {
		for _, p := range tab.Protocols {
			prefix := "Figure T: " + p.DisplayName()
			if got := lines[i]; len(got) < len(prefix) || got[:len(prefix)] != prefix {
				t.Fatalf("line %d = %q, want prefix %q (x=%g)", i, got, prefix, x)
			}
			i++
		}
	}
}
