// Package figures regenerates every table and figure of the paper's
// evaluation section (§5). Each Figure function runs the corresponding
// parameter sweep across all four protocols and returns a Table whose
// rows mirror the published plot's series.
package figures

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"ewmac/internal/experiment"
	"ewmac/internal/fault"
	"ewmac/internal/metrics"
	"ewmac/internal/obs"
	"ewmac/internal/runner"
	"ewmac/internal/sim"
)

// Options control sweep fidelity and supervision.
type Options struct {
	// Seeds are averaged per data point (default {1, 2, 3}).
	Seeds []int64
	// SimTime overrides the per-run simulated duration (default: the
	// paper's 300 s).
	SimTime time.Duration
	// Progress, if non-nil, receives one line per data point. Points run
	// concurrently, so lines are emitted during final table assembly, in
	// deterministic x-ascending, protocol-column order. Quarantines are
	// also forwarded as they happen, so those lines are not
	// order-deterministic.
	Progress func(string)
	// Workers bounds how many (x-value × protocol) points of one sweep
	// are in flight at once (0 = GOMAXPROCS; 1 = serial). A point runs
	// its seeds one after another, and every point attempt in the
	// process passes the runner's one GOMAXPROCS-sized run gate.
	// Results are identical for any value: each run owns an independent
	// engine and the table is assembled in a fixed order after all
	// points finish.
	Workers int
	// Budget bounds each point's run (zero = unbounded, livelock
	// watchdog still armed). A point that exceeds it is quarantined.
	Budget sim.Budget
	// Live, when non-nil, receives every run's event stream plus the
	// sweep's point-completion progress, feeding the -http
	// introspection server. Live locks a mutex per event, so attach it
	// only when a server is actually wanted.
	Live *obs.Live
	// Faults applies one fault-injection scenario to every sweep point,
	// regenerating the paper's figures under adverse conditions; nil
	// keeps the fault-free baseline.
	Faults *fault.Scenario
}

func (o *Options) applyDefaults() {
	if len(o.Seeds) == 0 {
		o.Seeds = []int64{1, 2, 3}
	}
	if o.SimTime <= 0 {
		o.SimTime = 300 * time.Second
	}
}

// Table is one reproduced figure: X values against one Y series per
// protocol.
type Table struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	// Protocols column order.
	Protocols []experiment.Protocol
	// X values, ascending.
	X []float64
	// Y[protocol][i] corresponds to X[i]. A quarantined point is NaN.
	Y map[experiment.Protocol][]float64
	// Failed lists quarantined cells per protocol ("x=…: reason"); nil
	// when every point completed.
	Failed map[experiment.Protocol][]string
	// Stats summarize the supervised sweep that produced the table.
	Stats runner.Stats
}

// fail records a quarantined cell.
func (t *Table) fail(p experiment.Protocol, msg string) {
	if t.Failed == nil {
		t.Failed = make(map[experiment.Protocol][]string)
	}
	t.Failed[p] = append(t.Failed[p], msg)
}

// Render formats the table as aligned ASCII.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	fmt.Fprintf(&b, "%-12s", t.XLabel)
	for _, p := range t.Protocols {
		fmt.Fprintf(&b, "%12s", p.DisplayName())
	}
	b.WriteByte('\n')
	for i, x := range t.X {
		fmt.Fprintf(&b, "%-12.3g", x)
		for _, p := range t.Protocols {
			fmt.Fprintf(&b, "%12.4f", t.Y[p][i])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV formats the table as comma-separated values with a header row.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.ReplaceAll(t.XLabel, ",", " "))
	for _, p := range t.Protocols {
		b.WriteByte(',')
		b.WriteString(p.DisplayName())
	}
	b.WriteByte('\n')
	for i, x := range t.X {
		fmt.Fprintf(&b, "%g", x)
		for _, p := range t.Protocols {
			fmt.Fprintf(&b, ",%g", t.Y[p][i])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// pointFunc configures one run for an x value; reduce maps its summary
// (plus the same-x S-FAMA baseline summary, for ratio figures) to y.
type pointFunc func(p experiment.Protocol, x float64) experiment.Config

type reduceFunc func(s, baseline metrics.Summary) float64

// needBaseline marks sweeps whose reduce divides by the same-x S-FAMA
// summary: when the baseline point is quarantined, the whole x-row is.
func sweep(id, title, xlabel, ylabel string, xs []float64, opts Options,
	point pointFunc, reduce reduceFunc, needBaseline bool) (*Table, error) {
	opts.applyDefaults()
	t := &Table{
		ID:        id,
		Title:     title,
		XLabel:    xlabel,
		YLabel:    ylabel,
		Protocols: append([]experiment.Protocol(nil), experiment.Protocols...),
		X:         append([]float64(nil), xs...),
		Y:         make(map[experiment.Protocol][]float64),
	}
	sort.Float64s(t.X)

	// Every (x-value × protocol) point goes through the runner's
	// supervised pool: a panicking or budget-exhausted point is
	// quarantined as a NaN cell instead of aborting the figure. Each
	// point runs with its own engines, so results are independent of
	// completion order; determinism comes from assembling the table (and
	// computing the S-FAMA-relative reductions) afterwards in fixed
	// x-ascending, protocol-column order.
	np := len(t.Protocols)
	keys := make([]runner.Key, 0, len(t.X)*np)
	for _, x := range t.X {
		for _, p := range t.Protocols {
			keys = append(keys, runner.Key{Sweep: id, Protocol: string(p), X: x})
		}
	}
	idx := func(xi, pi int) int { return xi*np + pi }
	pf := func(k runner.Key, b sim.Budget) (metrics.Summary, error) {
		cfg := point(experiment.Protocol(k.Protocol), k.X)
		cfg.SimTime = opts.SimTime
		cfg.Budget = b
		cfg.Faults = opts.Faults
		if opts.Live != nil {
			if cfg.Observe == nil {
				cfg.Observe = &experiment.Observe{}
			}
			cfg.Observe.Recorder = obs.Multi(cfg.Observe.Recorder, opts.Live)
		}
		return experiment.RunMean(cfg, opts.Seeds)
	}
	ropts := runner.Options{
		Workers: opts.Workers,
		Budget:  opts.Budget,
		OnEvent: opts.Progress,
	}
	if opts.Live != nil {
		ropts.OnPoint = func(done, total int) { opts.Live.Progress(done, total, id) }
	}
	// Sweep's error is always nil: a failed point is a quarantined record.
	recs, stats, _ := runner.Sweep(keys, pf, ropts)
	t.Stats = stats

	spi := 0
	for pi, p := range t.Protocols {
		if p == experiment.ProtocolSFAMA {
			spi = pi
		}
	}
	for xi, x := range t.X {
		baseRec := recs[idx(xi, spi)]
		var base metrics.Summary
		if baseRec.Status == runner.StatusDone {
			base = *baseRec.Summary
		}
		for pi, p := range t.Protocols {
			r := recs[idx(xi, pi)]
			var y float64
			switch {
			case r.Status != runner.StatusDone:
				y = math.NaN()
				t.fail(p, fmt.Sprintf("x=%g: %s", x, r.Error))
			case needBaseline && baseRec.Status != runner.StatusDone:
				y = math.NaN()
				t.fail(p, fmt.Sprintf("x=%g: S-FAMA baseline quarantined: %s", x, baseRec.Error))
			default:
				y = reduce(*r.Summary, base)
			}
			t.Y[p] = append(t.Y[p], y)
			if opts.Progress != nil {
				opts.Progress(fmt.Sprintf("%s: %s x=%g y=%.4f", id, p.DisplayName(), x, y))
			}
		}
	}
	return t, nil
}

// Figure6 reproduces "Throughput at different offer loads": offered
// load 0.1–1.0 kbps, 60 sensors.
func Figure6(opts Options) (*Table, error) {
	xs := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	return sweep("Figure 6", "Throughput at different offered loads",
		"load(kbps)", "throughput(kbps)", xs, opts,
		func(p experiment.Protocol, x float64) experiment.Config {
			cfg := experiment.Default(p)
			cfg.OfferedLoadKbps = x
			return cfg
		},
		func(s, _ metrics.Summary) float64 { return s.ThroughputKbps }, false)
}

// Figure7 reproduces "Throughput at different network sensor
// densities": 60–140 sensors at 0.8 kbps offered load.
func Figure7(opts Options) (*Table, error) {
	xs := []float64{60, 80, 100, 120, 140}
	return sweep("Figure 7", "Throughput at different sensor densities",
		"nodes", "throughput(kbps)", xs, opts,
		func(p experiment.Protocol, x float64) experiment.Config {
			cfg := experiment.Default(p)
			cfg.Nodes = int(x)
			cfg.OfferedLoadKbps = 0.8
			return cfg
		},
		func(s, _ metrics.Summary) float64 { return s.ThroughputKbps }, false)
}

// Figure8 reproduces "Relationship between execution time and offer
// load": mean time from generation to successful delivery.
func Figure8(opts Options) (*Table, error) {
	xs := []float64{0.01, 0.2, 0.4, 0.6, 0.8, 1.0}
	return sweep("Figure 8", "Execution time vs offered load",
		"load(kbps)", "execution time(s)", xs, opts,
		func(p experiment.Protocol, x float64) experiment.Config {
			cfg := experiment.Default(p)
			cfg.OfferedLoadKbps = x
			return cfg
		},
		func(s, _ metrics.Summary) float64 { return s.ExecutionTime.Seconds() }, false)
}

// Figure9a reproduces "Power consumption according to offered load"
// among 80 sensors.
func Figure9a(opts Options) (*Table, error) {
	xs := []float64{0.1, 0.2, 0.4, 0.6, 0.8}
	return sweep("Figure 9a", "Power consumption vs offered load (80 sensors)",
		"load(kbps)", "power(mW)", xs, opts,
		func(p experiment.Protocol, x float64) experiment.Config {
			cfg := experiment.Default(p)
			cfg.Nodes = 80
			cfg.OfferedLoadKbps = x
			return cfg
		},
		func(s, _ metrics.Summary) float64 { return s.MeanPowerMW }, false)
}

// Figure9b reproduces "Power consumption according to the number of
// sensors" at 0.3 kbps offered load.
func Figure9b(opts Options) (*Table, error) {
	xs := []float64{60, 80, 100, 120}
	return sweep("Figure 9b", "Power consumption vs sensor count (0.3 kbps)",
		"nodes", "power(mW)", xs, opts,
		func(p experiment.Protocol, x float64) experiment.Config {
			cfg := experiment.Default(p)
			cfg.Nodes = int(x)
			cfg.OfferedLoadKbps = 0.3
			return cfg
		},
		func(s, _ metrics.Summary) float64 { return s.MeanPowerMW }, false)
}

// Figure10a reproduces "Overhead for the number of sensors" at 0.5 kbps
// (ratio to S-FAMA = 1).
func Figure10a(opts Options) (*Table, error) {
	xs := []float64{60, 80, 100, 120, 140}
	return sweep("Figure 10a", "Overhead ratio vs sensor count (0.5 kbps)",
		"nodes", "overhead(×S-FAMA)", xs, opts,
		func(p experiment.Protocol, x float64) experiment.Config {
			cfg := experiment.Default(p)
			cfg.Nodes = int(x)
			cfg.OfferedLoadKbps = 0.5
			return cfg
		},
		metrics.OverheadRatio, true)
}

// Figure10b reproduces "Overhead ratio according to the offered load
// among 200 sensors".
func Figure10b(opts Options) (*Table, error) {
	xs := []float64{0.4, 0.5, 0.6, 0.7, 0.8}
	return sweep("Figure 10b", "Overhead ratio vs offered load (200 sensors)",
		"load(kbps)", "overhead(×S-FAMA)", xs, opts,
		func(p experiment.Protocol, x float64) experiment.Config {
			cfg := experiment.Default(p)
			cfg.Nodes = 200
			cfg.OfferedLoadKbps = x
			return cfg
		},
		metrics.OverheadRatio, true)
}

// Figure11 reproduces "Efficiency indexes for different offered loads"
// (Equation (4), S-FAMA = 1).
func Figure11(opts Options) (*Table, error) {
	xs := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	return sweep("Figure 11", "Efficiency index vs offered load",
		"load(kbps)", "efficiency(×S-FAMA)", xs, opts,
		func(p experiment.Protocol, x float64) experiment.Config {
			cfg := experiment.Default(p)
			cfg.OfferedLoadKbps = x
			return cfg
		},
		metrics.EfficiencyIndex, true)
}

// FigurePacketSize is an extension experiment beyond the paper's
// plotted figures, quantifying its §2/§6 claim that large data packets
// suit UASNs ("the energy consumption of proposed protocol is less
// than that of existing protocols ... when the data packets are
// large"): throughput across Table 2's 1024–4096-bit payload range at
// fixed 0.6 kbps offered load.
func FigurePacketSize(opts Options) (*Table, error) {
	xs := []float64{1024, 1536, 2048, 3072, 4096}
	return sweep("Ext PacketSize", "Throughput vs data packet size (0.6 kbps)",
		"data(bits)", "throughput(kbps)", xs, opts,
		func(p experiment.Protocol, x float64) experiment.Config {
			cfg := experiment.Default(p)
			cfg.DataBits = int(x)
			cfg.OfferedLoadKbps = 0.6
			return cfg
		},
		func(s, _ metrics.Summary) float64 { return s.ThroughputKbps }, false)
}

// Table2 renders the paper's simulation-parameter table from the
// default configuration.
func Table2() string {
	cfg := experiment.Default(experiment.ProtocolEWMAC)
	var b strings.Builder
	b.WriteString("Table 2 — Simulation parameters\n")
	rows := [][2]string{
		{"Number of sensors", fmt.Sprintf("%d (+%d sinks)", cfg.Nodes, cfg.Sinks)},
		{"Deployment region", fmt.Sprintf("%.0f m cube", cfg.RegionSide)},
		{"Bandwidth", "12 kbps"},
		{"Communication range", "1.5 km"},
		{"Acoustic speed", "1.5 km/s"},
		{"Simulation time", cfg.SimTime.String()},
		{"Control packet size", "64 bits"},
		{"Data packet size", fmt.Sprintf("%d bits (1024–4096 supported)", cfg.DataBits)},
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-24s %s\n", r[0], r[1])
	}
	return b.String()
}

// All maps figure IDs to their generators, in paper order.
func All() []struct {
	ID  string
	Run func(Options) (*Table, error)
} {
	return []struct {
		ID  string
		Run func(Options) (*Table, error)
	}{
		{"fig6", Figure6},
		{"fig7", Figure7},
		{"fig8", Figure8},
		{"fig9a", Figure9a},
		{"fig9b", Figure9b},
		{"fig10a", Figure10a},
		{"fig10b", Figure10b},
		{"fig11", Figure11},
		{"ext-pktsize", FigurePacketSize},
	}
}
