package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"ewmac"
)

// metric is one named measurement.
type metric struct {
	name  string
	value float64
	unit  string
}

// outcome is what one invocation measured: the operations it attempted
// and failed, its metrics in print order, and notes: numbers printed
// for people that are not part of the result.
type outcome struct {
	attempted, failed int
	metrics, notes    []metric
}

func (o *outcome) add(name string, value float64, unit string) {
	o.metrics = append(o.metrics, metric{name, value, unit})
}

func (o *outcome) note(name string, value float64, unit string) {
	o.notes = append(o.notes, metric{name, value, unit})
}

// fail counts one failed operation and says why on standard error.
func (o *outcome) fail(what string, err error) {
	o.failed++
	fmt.Fprintf(os.Stderr, "simbench: FAILED %s: %v\n", what, err)
}

// runFunc executes one simulation; tests substitute a failing one.
type runFunc func(ewmac.Config) (*ewmac.Result, error)

// safeRun calls run behind a recover boundary, so a panicking run
// counts as one failure instead of ending the measurement.
func safeRun(run runFunc, c ewmac.Config) (res *ewmac.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v\n%s", p, debug.Stack())
		}
	}()
	return run(c)
}

// check rejects a result whose metrics cannot come from a healthy run.
func check(c ewmac.Config, r *ewmac.Result) error {
	s := r.Summary
	for _, v := range []float64{s.ThroughputKbps, s.DeliveryRatio, s.MeanPowerMW} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("non-finite summary metric in %+v", s)
		}
	}
	if s.MAC.Generated == 0 || s.ThroughputKbps <= 0 {
		return fmt.Errorf("no traffic: generated %d, throughput %v kbps", s.MAC.Generated, s.ThroughputKbps)
	}
	if s.Nodes != c.Nodes+c.Sinks {
		return fmt.Errorf("summary covers %d nodes, want %d", s.Nodes, c.Nodes+c.Sinks)
	}
	if c.Observe != nil && c.Observe.Verify && (r.Conformance == nil || r.Conformance.Receptions == 0) {
		return fmt.Errorf("verifier checked no receptions")
	}
	return nil
}

// fingerprint hashes everything a run reports, so two runs of one
// (config, seed) pair can be compared for determinism.
func fingerprint(r *ewmac.Result) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%v", r.Summary)
	if c := r.Conformance; c != nil {
		fmt.Fprintf(h, "|%v", *c)
	}
	if s := r.Resilience; s != nil {
		fmt.Fprintf(h, "|%v", *s)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// replays remembers the first fingerprint of every repeated unit (a
// run's pair or a figure) and flags any later one that differs. It also
// compares the default seed's fingerprints against the committed ones
// and reports drift without counting it: the simulator's own golden
// tests decide whether an output change is allowed.
type replays struct {
	workload string
	first    map[string]string
}

func newReplays(workload string) *replays {
	return &replays{workload: workload, first: map[string]string{}}
}

func (rp *replays) check(unit, fp string) error {
	prev, seen := rp.first[unit]
	if !seen {
		rp.first[unit] = fp
		want, ok := golden[rp.workload][unit]
		switch {
		case ok && want != fp:
			fmt.Fprintf(os.Stderr, "simbench: drift %s %s: fingerprint %s, committed %s\n", rp.workload, unit, fp, want)
		case !ok && strings.HasSuffix(unit, "/seed=1"):
			fmt.Fprintf(os.Stderr, "simbench: no committed fingerprint for %s %s: %s\n", rp.workload, unit, fp)
		}
		return nil
	}
	if prev != fp {
		return fmt.Errorf("same-seed replay of %s differs: %s then %s", unit, prev, fp)
	}
	return nil
}

// quantile returns the q-quantile of xs by linear interpolation, as
// Python's statistics.quantiles(method="inclusive") does.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func mallocs() (count, bytes uint64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs, m.TotalAlloc
}

// timeSetup runs setup reps times, sampling the host's speed after each,
// and returns the median wall time in seconds; a failing call is counted
// in o. The measurements call it after their timed runs, so set-up is
// timed in a warm process, as the runs are.
func timeSetup(o *outcome, cal *calibration, reps int, setup func(i int) error) float64 {
	var walls []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		err := setup(i)
		walls = append(walls, time.Since(t0).Seconds())
		cal.sample()
		o.attempted++
		if err != nil {
			o.fail(fmt.Sprintf("set-up %d", i), err)
		}
	}
	return quantile(walls, 0.5)
}

// endToEnd appends the end-to-end metrics shared by every workload:
// units are the timed units' host times and busy the host time the
// measurement took, over which runs simulation runs covered simS
// simulated seconds; allocs and bytes are per-run means. Times and
// rates are scaled by the host's load factor.
func endToEnd(o *outcome, cal *calibration, setupS float64, units []time.Duration, busy time.Duration, runs int, simS, allocs, bytes float64) {
	f := cal.loadFactor()
	ms := make([]float64, len(units))
	for i, d := range units {
		ms[i] = float64(d) / 1e6 / f
	}
	o.add("setup_s", setupS/f, "s")
	o.add("run_wall_ms.p50", quantile(ms, 0.5), "ms")
	o.add("run_wall_ms.p90", quantile(ms, 0.9), "ms")
	o.add("runs_per_s", float64(runs)/busy.Seconds()*f, "1/s")
	o.add("sim_s_per_host_s", simS/busy.Seconds()*f, "s/s")
	o.add("allocs_per_run", allocs, "count")
	o.add("alloc_mb_per_run", bytes/(1<<20), "MB")
	o.add("max_rss_mb", maxRSSMB(), "MB")
	o.note("run_wall_ms.samples", float64(len(units)), "count")
	o.note("host.load_factor", f, "ratio")
}

// measurePairs is the untraced measurement of a single-run workload: a
// closed loop on one goroutine, the next run starting when the previous
// one returns, cycling through the pairs until budget is spent.
func measurePairs(w workload, seed int64, budget time.Duration, run runFunc) outcome {
	var o outcome
	cal := newCalibration()
	ps := w.pairs(seed)
	rp := newReplays(w.name)
	allocs := make([]uint64, len(ps))
	bytes := make([]uint64, len(ps))
	count := make([]int, len(ps))
	var walls []time.Duration
	var busy time.Duration
	var simS float64
	start := time.Now()
	for i := 0; ; i++ {
		pi := i % len(ps)
		p := ps[pi]
		a0, b0 := mallocs()
		t0 := time.Now()
		r, err := safeRun(run, p.cfg)
		d := time.Since(t0)
		a1, b1 := mallocs()
		cal.sample()

		o.attempted++
		if err == nil {
			err = check(p.cfg, r)
		}
		if err == nil {
			err = rp.check(p.label, fingerprint(r))
		}
		if err != nil {
			o.fail(p.label, err)
		}
		walls = append(walls, d)
		busy += d
		simS += p.cfg.SimTime.Seconds()
		allocs[pi] += a1 - a0
		bytes[pi] += b1 - b0
		count[pi]++
		if time.Since(start)+d > budget {
			break
		}
	}

	// Per-pair means, then their mean: a cycle cut short by the budget
	// must not weight the pairs it reached twice.
	var meanAllocs, meanBytes float64
	pairs := 0
	for pi, n := range count {
		if n == 0 {
			continue
		}
		meanAllocs += float64(allocs[pi]) / float64(n)
		meanBytes += float64(bytes[pi]) / float64(n)
		pairs++
	}
	meanAllocs /= float64(pairs)
	meanBytes /= float64(pairs)
	// One set-up per pair, so the median covers the whole cycle whatever
	// the host's speed.
	setupS := timeSetup(&o, cal, len(ps), func(i int) error {
		_, err := safeRun(run, truncate(ps[i].cfg))
		return err
	})
	endToEnd(&o, cal, setupS, walls, busy, len(walls), simS, meanAllocs, meanBytes)
	return o
}

// figureRun is one figure generator's outcome within a sweep.
type figureRun struct {
	id    string
	table string
	wall  time.Duration
	err   error
	quar  int
	pts   int
}

// runFigures runs the generators the way cmd/figures does: as many
// figures in flight as there are workers, each fanning its points out
// through the runner. It returns each figure's outcome and the sweep's
// wall time.
func runFigures(figs []figureGen, opts ewmac.FigureOptions, onFigure func(id string, start, end time.Time)) ([]figureRun, time.Duration) {
	out := make([]figureRun, len(figs))
	sem := make(chan struct{}, opts.Workers)
	var wg sync.WaitGroup
	start := time.Now()
	for i, f := range figs {
		// Figures start in a fixed order, so the pairs that share the
		// CPUs, and with them each figure's wall time, repeat.
		sem <- struct{}{}
		wg.Add(1)
		go func(i int, f figureGen) {
			defer wg.Done()
			defer func() { <-sem }()
			t0 := time.Now()
			t, err := f.Run(opts)
			t1 := time.Now()
			fr := figureRun{id: f.ID, wall: t1.Sub(t0), err: err}
			if err == nil {
				fr.table = t.CSV()
				fr.quar = t.Stats.Quarantined
				fr.pts = t.Stats.Points
			}
			out[i] = fr
			if onFigure != nil {
				onFigure(f.ID, t0, t1)
			}
		}(i, f)
	}
	wg.Wait()
	return out, time.Since(start)
}

// tallyFigures counts a sweep's points as attempted and its quarantined
// points, errors and replay mismatches as failed. It returns the number
// of points.
func tallyFigures(o *outcome, rp *replays, frs []figureRun, seed int64) int {
	points := 0
	for _, fr := range frs {
		switch {
		case fr.err != nil:
			o.attempted++
			o.fail(fr.id, fr.err)
			continue
		case fr.quar > 0:
			o.failed += fr.quar
			fmt.Fprintf(os.Stderr, "simbench: FAILED %s: %d point(s) quarantined\n", fr.id, fr.quar)
		}
		o.attempted += fr.pts
		points += fr.pts
		h := fnv.New64a()
		h.Write([]byte(fr.table))
		if err := rp.check(fmt.Sprintf("%s/seed=%d", fr.id, seed), fmt.Sprintf("%016x", h.Sum64())); err != nil {
			o.failed += fr.pts
			fmt.Fprintf(os.Stderr, "simbench: FAILED %s: %v\n", fr.id, err)
		}
	}
	return points
}

// sweepSetups is how many truncated sweeps the sweep's setup_s is the
// median of.
const sweepSetups = 3

// measureSweep is the untraced measurement of the sweep workload: whole
// sweeps back to back, at least three, so every figure's CSV is
// compared with its repetitions and the sample count does not flip
// between two and three sweeps on a host near the time limit. Its timed
// unit is one sweep: point walls are not observable through the figures
// API, and a figure's wall depends on which figure shares the CPUs with
// it.
func measureSweep(w workload, seed int64, budget time.Duration) outcome {
	var o outcome
	cal := newCalibration()
	opts := w.figOpts(seed)
	rp := newReplays(w.name)
	var walls []time.Duration
	var busy time.Duration
	var points int
	var a, b uint64
	for rep := 0; rep < 3 || busy+busy/time.Duration(rep) <= budget; rep++ {
		a0, b0 := mallocs()
		frs, wall := runFigures(w.figs, opts, nil)
		a1, b1 := mallocs()
		// The probe cannot run beside the sweep without taking a CPU from
		// it, so the sweep samples the host between sweeps.
		for i := 0; i < 25; i++ {
			cal.sample()
		}
		a += a1 - a0
		b += b1 - b0
		busy += wall
		walls = append(walls, wall)
		points += tallyFigures(&o, rp, frs, seed)
	}
	runs := points * len(opts.Seeds)
	if runs == 0 {
		runs = 1
	}
	setupOpts := opts
	setupOpts.SimTime = truncate(ewmac.DefaultConfig(ewmac.EWMAC)).SimTime
	setupS := timeSetup(&o, cal, sweepSetups, func(int) error {
		frs, _ := runFigures(w.figs, setupOpts, nil)
		for _, fr := range frs {
			if fr.err != nil {
				return fmt.Errorf("%s: %w", fr.id, fr.err)
			}
		}
		return nil
	})
	endToEnd(&o, cal, setupS, walls, busy, runs, float64(runs)*opts.SimTime.Seconds(),
		float64(a)/float64(runs), float64(b)/float64(runs))
	return o
}
