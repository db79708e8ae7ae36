// Package figures regenerates every table and figure of the paper's
// evaluation section (§5). Each figure is a spec: a parameter sweep
// across all four protocols and a reduction to the Table whose rows
// mirror the published plot's series. Plan runs any selection of
// figures as one plan, running each distinct point once; each Figure
// function is a plan of one.
package figures

import (
	"fmt"
	"math"
	"slices"
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
	// Progress, if non-nil, receives one line per table cell. Points run
	// concurrently, so lines are emitted after the whole plan finishes,
	// figure by figure in selection order, each in deterministic
	// x-ascending, protocol-column order. Quarantines are also forwarded
	// as they happen, once per distinct point, so those lines are not
	// order-deterministic.
	Progress func(string)
	// Workers bounds how many distinct points of the plan are in flight
	// at once (0 = GOMAXPROCS; 1 = serial). A point runs its seeds one
	// after another, and every point attempt in the process passes the
	// runner's one GOMAXPROCS-sized run gate. Results are identical for
	// any value: each run owns an independent engine and the tables are
	// assembled in a fixed order after all points finish.
	Workers int
	// Budget bounds each point's run (zero = unbounded, livelock
	// watchdog still armed). A point that exceeds it is quarantined.
	Budget sim.Budget
	// Live, when non-nil, receives every run's event stream plus the
	// plan's point-completion progress, feeding the -http
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
	// Stats count the table's cells and how many completed or were
	// quarantined. A point shared with another figure of the same plan
	// counts in each; Plan's own stats count it once.
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

// spec is one figure as data: its labels, its x values, how an x value
// sets up a run, and how a run's summary reduces to the plotted y.
type spec struct {
	// name is the short ID that All and cmd/figures select by.
	name                      string
	id, title, xlabel, ylabel string
	xs                        []float64
	// set applies x to experiment.Default(p).
	set func(cfg *experiment.Config, x float64)
	// reduce maps a point's summary (plus the same-x S-FAMA summary,
	// for ratio figures) to y.
	reduce func(s, baseline metrics.Summary) float64
	// needBaseline marks figures whose reduce divides by the same-x
	// S-FAMA summary: when the baseline point is quarantined, the whole
	// x-row is.
	needBaseline bool
}

// loadAt sweeps the offered load over nodes sensors; nodesAt sweeps the
// sensor count at load kbps.
func loadAt(nodes int) func(*experiment.Config, float64) {
	return func(cfg *experiment.Config, x float64) { cfg.Nodes, cfg.OfferedLoadKbps = nodes, x }
}

func nodesAt(load float64) func(*experiment.Config, float64) {
	return func(cfg *experiment.Config, x float64) { cfg.Nodes, cfg.OfferedLoadKbps = int(x), load }
}

func throughput(s, _ metrics.Summary) float64 { return s.ThroughputKbps }
func power(s, _ metrics.Summary) float64      { return s.MeanPowerMW }

var (
	figure6 = &spec{name: "fig6", id: "Figure 6", title: "Throughput at different offered loads",
		xlabel: "load(kbps)", ylabel: "throughput(kbps)", set: loadAt(60), reduce: throughput,
		xs: []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}}
	figure7 = &spec{name: "fig7", id: "Figure 7", title: "Throughput at different sensor densities",
		xlabel: "nodes", ylabel: "throughput(kbps)", set: nodesAt(0.8), reduce: throughput,
		xs: []float64{60, 80, 100, 120, 140}}
	figure8 = &spec{name: "fig8", id: "Figure 8", title: "Execution time vs offered load",
		xlabel: "load(kbps)", ylabel: "execution time(s)", set: loadAt(60),
		reduce: func(s, _ metrics.Summary) float64 { return s.ExecutionTime.Seconds() },
		xs:     []float64{0.01, 0.2, 0.4, 0.6, 0.8, 1.0}}
	figure9a = &spec{name: "fig9a", id: "Figure 9a", title: "Power consumption vs offered load (80 sensors)",
		xlabel: "load(kbps)", ylabel: "power(mW)", set: loadAt(80), reduce: power,
		xs: []float64{0.1, 0.2, 0.4, 0.6, 0.8}}
	figure9b = &spec{name: "fig9b", id: "Figure 9b", title: "Power consumption vs sensor count (0.3 kbps)",
		xlabel: "nodes", ylabel: "power(mW)", set: nodesAt(0.3), reduce: power,
		xs: []float64{60, 80, 100, 120}}
	figure10a = &spec{name: "fig10a", id: "Figure 10a", title: "Overhead ratio vs sensor count (0.5 kbps)",
		xlabel: "nodes", ylabel: "overhead(×S-FAMA)", set: nodesAt(0.5),
		reduce: metrics.OverheadRatio, needBaseline: true,
		xs: []float64{60, 80, 100, 120, 140}}
	figure10b = &spec{name: "fig10b", id: "Figure 10b", title: "Overhead ratio vs offered load (200 sensors)",
		xlabel: "load(kbps)", ylabel: "overhead(×S-FAMA)", set: loadAt(200),
		reduce: metrics.OverheadRatio, needBaseline: true,
		xs: []float64{0.4, 0.5, 0.6, 0.7, 0.8}}
	figure11 = &spec{name: "fig11", id: "Figure 11", title: "Efficiency index vs offered load",
		xlabel: "load(kbps)", ylabel: "efficiency(×S-FAMA)", set: loadAt(60),
		reduce: metrics.EfficiencyIndex, needBaseline: true,
		xs: []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}}
	figurePacketSize = &spec{name: "ext-pktsize", id: "Ext PacketSize", title: "Throughput vs data packet size (0.6 kbps)",
		xlabel: "data(bits)", ylabel: "throughput(kbps)", reduce: throughput,
		set: func(cfg *experiment.Config, x float64) { cfg.DataBits, cfg.OfferedLoadKbps = int(x), 0.6 },
		xs:  []float64{1024, 1536, 2048, 3072, 4096}}

	// specs lists every figure in paper order.
	specs = []*spec{figure6, figure7, figure8, figure9a, figure9b,
		figure10a, figure10b, figure11, figurePacketSize}
)

// run plans s alone.
func (s *spec) run(opts Options) (*Table, error) {
	tabs, _ := plan([]*spec{s}, opts)
	return tabs[0], nil
}

// Plan runs the figures named by ids (All's IDs) as one plan and
// returns their tables in the same order, plus the stats of the plan's
// distinct points. A point that several figures share runs once.
func Plan(ids []string, opts Options) ([]*Table, runner.Stats, error) {
	sel := make([]*spec, len(ids))
	for i, id := range ids {
		j := slices.IndexFunc(specs, func(s *spec) bool { return s.name == id })
		if j < 0 {
			return nil, runner.Stats{}, fmt.Errorf("figures: unknown figure %q", id)
		}
		sel[i] = specs[j]
	}
	tabs, stats := plan(sel, opts)
	return tabs, stats, nil
}

// plan runs every (figure, x, protocol) cell of the selected figures
// through one supervised runner.Sweep, one run per distinct point. A
// cell's point is the config its figure's setter made from
// experiment.Default; every other field comes from opts, so equal
// setter configs are the same run by construction. Points go to the
// runner in first-use order, so a one-figure plan submits its cells in
// x-ascending, protocol-column order. A panicking or budget-exhausted
// point is quarantined as NaN in every cell that uses it. Each point
// runs with its own engines, so results are independent of completion
// order; determinism comes from assembling each table (and its
// S-FAMA-relative reductions) afterwards in fixed x-ascending,
// protocol-column order.
func plan(sel []*spec, opts Options) ([]*Table, runner.Stats) {
	opts.applyDefaults()
	protos := experiment.Protocols
	np := len(protos)
	spi := slices.Index(protos, experiment.ProtocolSFAMA)

	var keys []runner.Key
	cfgs := make(map[runner.Key]experiment.Config)
	index := make(map[experiment.Config]int)
	// cells[f][xi*np+pi] is the index into keys of figure f's cell.
	cells := make([][]int, len(sel))
	tabs := make([]*Table, len(sel))
	ids := make([]string, len(sel))
	for f, s := range sel {
		t := &Table{
			ID:        s.id,
			Title:     s.title,
			XLabel:    s.xlabel,
			YLabel:    s.ylabel,
			Protocols: slices.Clone(protos),
			X:         slices.Clone(s.xs),
			Y:         make(map[experiment.Protocol][]float64),
		}
		slices.Sort(t.X)
		tabs[f], ids[f] = t, s.id
		for _, x := range t.X {
			for _, p := range protos {
				cfg := experiment.Default(p)
				s.set(&cfg, x)
				i, ok := index[cfg]
				if !ok {
					i = len(keys)
					index[cfg] = i
					k := runner.Key{Sweep: s.id, Protocol: string(p), X: x}
					keys = append(keys, k)
					cfgs[k] = cfg
				}
				cells[f] = append(cells[f], i)
			}
		}
	}

	pf := func(k runner.Key, b sim.Budget) (metrics.Summary, error) {
		cfg := cfgs[k]
		cfg.SimTime = opts.SimTime
		cfg.Budget = b
		cfg.Faults = opts.Faults
		if opts.Live != nil {
			cfg.Observe = &experiment.Observe{Recorder: opts.Live}
		}
		return experiment.RunMean(cfg, opts.Seeds)
	}
	ropts := runner.Options{
		Workers: opts.Workers,
		Budget:  opts.Budget,
		OnEvent: opts.Progress,
	}
	if opts.Live != nil {
		label := strings.Join(ids, ", ")
		ropts.OnPoint = func(done, total int) { opts.Live.Progress(done, total, label) }
	}
	// Sweep's error is always nil: a failed point is a quarantined record.
	recs, stats, _ := runner.Sweep(keys, pf, ropts)

	for f, s := range sel {
		t, cell := tabs[f], cells[f]
		t.Stats.Points = len(cell)
		for xi, x := range t.X {
			baseRec := recs[cell[xi*np+spi]]
			var base metrics.Summary
			if baseRec.Status == runner.StatusDone {
				base = *baseRec.Summary
			}
			for pi, p := range protos {
				r := recs[cell[xi*np+pi]]
				var y float64
				switch {
				case r.Status != runner.StatusDone:
					y = math.NaN()
					t.fail(p, fmt.Sprintf("x=%g: %s", x, r.Error))
				case s.needBaseline && baseRec.Status != runner.StatusDone:
					y = math.NaN()
					t.fail(p, fmt.Sprintf("x=%g: S-FAMA baseline quarantined: %s", x, baseRec.Error))
				default:
					y = s.reduce(*r.Summary, base)
				}
				if r.Status == runner.StatusDone {
					t.Stats.Completed++
				} else {
					t.Stats.Quarantined++
				}
				t.Y[p] = append(t.Y[p], y)
				if opts.Progress != nil {
					opts.Progress(fmt.Sprintf("%s: %s x=%g y=%.4f", s.id, p.DisplayName(), x, y))
				}
			}
		}
	}
	return tabs, stats
}

// Figure6 reproduces "Throughput at different offer loads": offered
// load 0.1–1.0 kbps, 60 sensors.
func Figure6(opts Options) (*Table, error) { return figure6.run(opts) }

// Figure7 reproduces "Throughput at different network sensor
// densities": 60–140 sensors at 0.8 kbps offered load.
func Figure7(opts Options) (*Table, error) { return figure7.run(opts) }

// Figure8 reproduces "Relationship between execution time and offer
// load": mean time from generation to successful delivery.
func Figure8(opts Options) (*Table, error) { return figure8.run(opts) }

// Figure9a reproduces "Power consumption according to offered load"
// among 80 sensors.
func Figure9a(opts Options) (*Table, error) { return figure9a.run(opts) }

// Figure9b reproduces "Power consumption according to the number of
// sensors" at 0.3 kbps offered load.
func Figure9b(opts Options) (*Table, error) { return figure9b.run(opts) }

// Figure10a reproduces "Overhead for the number of sensors" at 0.5 kbps
// (ratio to S-FAMA = 1).
func Figure10a(opts Options) (*Table, error) { return figure10a.run(opts) }

// Figure10b reproduces "Overhead ratio according to the offered load
// among 200 sensors".
func Figure10b(opts Options) (*Table, error) { return figure10b.run(opts) }

// Figure11 reproduces "Efficiency indexes for different offered loads"
// (Equation (4), S-FAMA = 1).
func Figure11(opts Options) (*Table, error) { return figure11.run(opts) }

// FigurePacketSize is an extension experiment beyond the paper's
// plotted figures, quantifying its §2/§6 claim that large data packets
// suit UASNs ("the energy consumption of proposed protocol is less
// than that of existing protocols ... when the data packets are
// large"): throughput across Table 2's 1024–4096-bit payload range at
// fixed 0.6 kbps offered load.
func FigurePacketSize(opts Options) (*Table, error) { return figurePacketSize.run(opts) }

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
// All maps figure IDs to their generators, in paper order.
func All() []struct {
	ID  string
	Run func(Options) (*Table, error)
} {
	out := make([]struct {
		ID  string
		Run func(Options) (*Table, error)
	}, len(specs))
	for i, s := range specs {
		out[i].ID, out[i].Run = s.name, s.run
	}
	return out
}
