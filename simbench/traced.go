package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sync"
	"time"

	"ewmac"
	"ewmac/internal/acoustic"
	"ewmac/internal/channel"
	"ewmac/internal/metrics"
	"ewmac/internal/obs"
	"ewmac/internal/obs/span"
	"ewmac/internal/oracle"
	"ewmac/internal/runner"
	"ewmac/internal/sim"
)

// tracedRuns caps how many of a workload's pairs the traced run replays.
const tracedRuns = 10

// spanRec is one benchmark span: a call into a layer, timed from the
// benchmark's side of the boundary. Times are nanoseconds since the
// traced run began; Parent 0 marks the root.
type spanRec struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. Figures and runner
// points finish on pool goroutines, hence the lock.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []spanRec
}

func (t *tracer) begin(parent int, name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, spanRec{ID: id, Parent: parent, Name: name, Start: int64(time.Since(t.t0))})
	return id
}

func (t *tracer) end(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = int64(time.Since(t.t0))
}

// add records a span whose interval was measured elsewhere.
func (t *tracer) add(parent int, name string, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, spanRec{ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedRecorder forwards the live event stream to one consumer and adds
// up the time the consumer spends on it.
type timedRecorder struct {
	inner obs.Recorder
	busy  time.Duration
	n     uint64
}

func (t *timedRecorder) Record(at sim.Time, e obs.Event) {
	start := time.Now()
	t.inner.Record(at, e)
	t.busy += time.Since(start)
	t.n++
}

func (t *timedRecorder) nsPerEvent() float64 { return ratio(float64(t.busy), float64(t.n)) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// taps are the consumers a traced run feeds through Observe.Recorder,
// each behind a timer, plus the on-air time of every arrival.
type taps struct {
	jsonl, collector, spans, oracle timedRecorder
	arrivalAir                      time.Duration
}

// observe returns c with the taps attached for one run, and a function
// that closes the run's consumers and returns its verifier's summary.
func (tp *taps) observe(c ewmac.Config) (ewmac.Config, func() (oracle.Stats, error)) {
	model := acoustic.DefaultModel()
	jsonl := obs.NewJSONL(io.Discard)
	spans := span.New(io.Discard)
	horizon := time.Duration(float64(model.MaxDelay()) * channel.InterferenceRangeFactor)
	verifier := oracle.NewStreaming(model.BitRate(), model.SINRThresholdDB, horizon)
	tp.jsonl.inner, tp.collector.inner = jsonl, obs.NewCollector()
	tp.spans.inner, tp.oracle.inner = spans, verifier
	air := obs.RecorderFunc(func(_ sim.Time, e obs.Event) {
		if ev, ok := e.(*obs.FrameEmit); ok {
			tp.arrivalAir += ev.Frame.TxDuration(model.BitRate())
		}
	})

	o := ewmac.Observe{}
	if c.Observe != nil {
		o = *c.Observe
	}
	o.Report = true
	o.Recorder = obs.Multi(o.Recorder, &tp.jsonl, &tp.collector, &tp.spans, &tp.oracle, air)
	c.Observe = &o
	return c, func() (oracle.Stats, error) {
		return verifier.Stats(), errors.Join(jsonl.Close(), spans.Close())
	}
}

// streamCounts adds up what the traced runs' reports and summaries say
// each layer did.
type streamCounts struct {
	runs                                int
	engineEvents, obsEvents             uint64
	emits, txs, rxs, losses, collisions uint64
	won, timeouts                       uint64
	extraAttempts, extraGrants, drops   uint64
	queuePeak                           int
	sojournS                            float64
	receptions, violations              uint64
	indexPeak, faultEpisodes            int
	overlap                             float64
}

func (sc *streamCounts) add(c ewmac.Config, r *ewmac.Result, st oracle.Stats, air time.Duration) {
	rep := r.Report
	sc.runs++
	sc.engineEvents += rep.EngineEvents
	for _, n := range rep.Events {
		sc.obsEvents += n
	}
	sc.emits += rep.Events[obs.FrameEmit{}.Tag()]
	sc.txs += rep.Events[obs.TxBegin{}.Tag()]
	sc.rxs += rep.Events[obs.FrameRx{}.Tag()]
	sc.losses += rep.Events[obs.FrameLoss{}.Tag()]
	sc.collisions += rep.Losses["collision"]
	sc.won += rep.Contention[obs.ContentionWon]
	sc.timeouts += rep.Contention[obs.ContentionTimeout]
	sc.extraAttempts += r.Summary.MAC.ExtraAttempts
	sc.extraGrants += r.Summary.MAC.ExtraGrants
	sc.drops += r.Summary.MAC.Dropped
	sc.queuePeak = max(sc.queuePeak, rep.QueuePeakDepth)
	sc.sojournS += rep.QueueMeanSojournS
	sc.receptions += st.Receptions
	sc.violations += st.Violations
	sc.indexPeak = max(sc.indexPeak, st.PeakArrivals)
	if r.Resilience != nil {
		sc.faultEpisodes += r.Resilience.Episodes
	}
	// Mean arrivals in the air at a node: on-air time of all arrivals
	// over node-time.
	sc.overlap += air.Seconds() / (float64(c.Nodes+c.Sinks) * c.SimTime.Seconds())
}

func (sc *streamCounts) perRun(v uint64) float64 { return ratio(float64(v), float64(sc.runs)) }

// variant is one row of the marginal-cost matrix: a subsystem switched
// on over the bare config.
type variant struct {
	name  string
	apply func(*ewmac.Config)
}

var matrix = []variant{
	{"bare", func(*ewmac.Config) {}},
	{"obs.report", func(c *ewmac.Config) { c.Observe = &ewmac.Observe{Report: true} }},
	{"obs.trace", func(c *ewmac.Config) { c.Observe = &ewmac.Observe{Trace: io.Discard} }},
	{"obs.spans", func(c *ewmac.Config) { c.Observe = &ewmac.Observe{Spans: io.Discard} }},
	{"obs.slotprof", func(c *ewmac.Config) { c.Observe = &ewmac.Observe{SlotProfile: io.Discard} }},
	{"oracle.verify", func(c *ewmac.Config) { c.Observe = &ewmac.Observe{Verify: true} }},
	{"fault.chaos", func(c *ewmac.Config) { c.Faults = chaosScenario }},
	{"mac.overload", func(c *ewmac.Config) { c.Overload = chaosOverload }},
}

// matrixTime is how long the matrix keeps adding rounds of one run per
// row; it runs at least three rounds and at most twenty.
const matrixTime = 6 * time.Second

// bare strips every opt-in subsystem from c.
func bare(c ewmac.Config) ewmac.Config {
	c.Observe, c.Faults, c.Overload = nil, nil, ewmac.OverloadConfig{}
	return c
}

// traced is the per-layer run: the workload's pairs (or, for the sweep,
// its shape configs) replayed untraced and then with every consumer
// timed, the marginal-cost matrix, the layer micro-benchmarks with inputs shaped
// by the traced counts, and the runner fan-out. It writes spans.jsonl
// and cpu.pprof to dir.
func traced(w workload, seed int64, dir string) (o outcome, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return o, err
	}
	prof, err := os.Create(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		return o, err
	}
	if err := pprof.StartCPUProfile(prof); err != nil {
		prof.Close()
		return o, err
	}
	defer func() {
		pprof.StopCPUProfile()
		err = errors.Join(err, prof.Close())
	}()

	tr := &tracer{t0: time.Now()}
	root := tr.begin(0, "workload:"+w.name)
	ps := w.shape
	if w.pairs != nil {
		ps = w.pairs
	}
	cycle := ps(seed)
	if len(cycle) > tracedRuns {
		cycle = cycle[:tracedRuns]
	}

	// Untraced replay: the reference for the trace overhead and for the
	// check that observation leaves every run unchanged.
	ref := tr.begin(root, "untraced")
	fps := make([]string, len(cycle))
	var untracedWall time.Duration
	var walls []float64
	for i, p := range cycle {
		id := tr.begin(ref, "run:"+p.label)
		start := time.Now()
		r, err := safeRun(ewmac.Run, p.cfg)
		d := time.Since(start)
		tr.end(id)
		o.attempted++
		if err == nil {
			err = check(p.cfg, r)
		}
		if err != nil {
			o.fail(p.label, err)
			continue
		}
		fps[i] = fingerprint(r)
		untracedWall += d
		walls = append(walls, float64(d))
	}
	tr.end(ref)

	var tp taps
	var sc streamCounts
	var tracedWall time.Duration
	tid := tr.begin(root, "traced")
	for i, p := range cycle {
		c, finish := tp.observe(p.cfg)
		id := tr.begin(tid, "run:"+p.label)
		air0 := tp.arrivalAir
		start := time.Now()
		r, err := safeRun(ewmac.Run, c)
		d := time.Since(start)
		tr.end(id)
		st, cerr := finish()
		o.attempted++
		if err == nil {
			err = cerr
		}
		if err == nil && fps[i] != "" && fingerprint(r) != fps[i] {
			err = fmt.Errorf("observation changed the run: %s, untraced %s", fingerprint(r), fps[i])
		}
		if err != nil {
			o.fail("traced "+p.label, err)
			continue
		}
		tracedWall += d
		sc.add(p.cfg, r, st, tp.arrivalAir-air0)
	}
	tr.end(tid)

	// The matrix runs its rows in rounds on one seed each, so machine
	// drift hits every row alike, and takes each row's median ratio to
	// the bare run of the same round.
	mid := tr.begin(root, "matrix")
	ratios := make([][]float64, len(matrix))
	mstart := time.Now()
	for rep := 0; rep < 20 && (rep < 3 || time.Since(mstart) < matrixTime); rep++ {
		base := bare(cycle[rep%len(cycle)].cfg)
		var bareWall time.Duration
		for vi, v := range matrix {
			c := base
			v.apply(&c)
			id := tr.begin(mid, fmt.Sprintf("run:%s:%d", v.name, rep))
			start := time.Now()
			_, err := safeRun(ewmac.Run, c)
			d := time.Since(start)
			tr.end(id)
			o.attempted++
			if err != nil {
				o.fail(v.name, err)
			}
			if vi == 0 {
				bareWall = d
			}
			ratios[vi] = append(ratios[vi], ratio(float64(d), float64(bareWall)))
		}
	}
	tr.end(mid)
	overhead := map[string]float64{}
	for vi, v := range matrix {
		overhead[v.name] = 100 * (quantile(ratios[vi], 0.5) - 1)
	}

	layer := func(name string, f func()) {
		id := tr.begin(root, "layer:"+name)
		defer tr.end(id)
		f()
	}
	var engine, noise, sinr, bcast, arrival cost
	layer("sim.schedule_run", func() { engine = engineCost() })
	layer("acoustic", func() { noise, sinr = acousticCosts() })
	md, err := newMedium(cycle[0].cfg)
	if err != nil {
		return o, err
	}
	layer("channel.broadcast", func() { bcast, err = md.broadcastCost() })
	if err != nil {
		return o, err
	}
	overlap := ratio(sc.overlap, float64(sc.runs))
	layer("phy.arrival", func() { arrival = md.arrivalCost(int(overlap + 0.5)) })
	queue := map[ewmac.DropPolicy]cost{}
	for _, pol := range []ewmac.DropPolicy{ewmac.DropTail, ewmac.DropOldest, ewmac.DropDeadline} {
		layer("mac.queue."+pol.String(), func() { queue[pol] = queueCost(pol, sc.queuePeak) })
	}

	speedup, slowest := runnerCosts(&o, tr, root, w, seed, cycle)

	o.add("sim.events_per_run", sc.perRun(sc.engineEvents), "count")
	o.add("sim.ns_per_event", ratio(quantile(walls, 0.5), sc.perRun(sc.engineEvents)), "ns")
	o.add("sim.schedule_run_ns", engine.ns, "ns")
	o.add("sim.schedule_run_allocs", engine.allocs, "count")
	o.add("acoustic.noise_ns", noise.ns, "ns")
	o.add("acoustic.sinr_ns", sinr.ns, "ns")
	o.add("channel.broadcasts_per_run", sc.perRun(sc.txs), "count")
	o.add("channel.fanout", ratio(float64(sc.emits), float64(sc.txs)), "ratio")
	o.add("channel.broadcast_ns", bcast.ns, "ns")
	o.add("channel.broadcast_allocs", bcast.allocs, "count")
	o.add("phy.arrivals_per_run", sc.perRun(sc.emits), "count")
	o.add("phy.decode_ratio", ratio(float64(sc.rxs), float64(sc.rxs+sc.losses)), "ratio")
	o.add("phy.collision_losses_per_run", sc.perRun(sc.collisions), "count")
	o.add("phy.mean_overlap", overlap, "arrivals")
	o.add("phy.arrival_ns", arrival.ns, "ns")
	o.add("mac.contention_win_ratio", ratio(float64(sc.won), float64(sc.won+sc.timeouts)), "ratio")
	o.add("mac.extra_grant_ratio", ratio(float64(sc.extraGrants), float64(sc.extraAttempts)), "ratio")
	o.add("mac.drops_per_run", sc.perRun(sc.drops), "count")
	o.add("mac.queue_peak_depth", float64(sc.queuePeak), "count")
	o.add("mac.queue_mean_sojourn_s", ratio(sc.sojournS, float64(sc.runs)), "s")
	o.add("mac.queue_op_ns.tail", queue[ewmac.DropTail].ns, "ns")
	o.add("mac.queue_op_ns.oldest", queue[ewmac.DropOldest].ns, "ns")
	o.add("mac.queue_op_ns.deadline", queue[ewmac.DropDeadline].ns, "ns")
	o.add("mac.overload_overhead_pct", overhead["mac.overload"], "%")
	o.add("obs.events_per_run", sc.perRun(sc.obsEvents), "count")
	o.add("obs.jsonl_ns_per_event", tp.jsonl.nsPerEvent(), "ns")
	o.add("obs.collector_ns_per_event", tp.collector.nsPerEvent(), "ns")
	o.add("obs.span_ns_per_event", tp.spans.nsPerEvent(), "ns")
	o.add("obs.report_overhead_pct", overhead["obs.report"], "%")
	o.add("obs.trace_overhead_pct", overhead["obs.trace"], "%")
	o.add("obs.spans_overhead_pct", overhead["obs.spans"], "%")
	o.add("obs.slotprof_overhead_pct", overhead["obs.slotprof"], "%")
	o.add("oracle.verify_overhead_pct", overhead["oracle.verify"], "%")
	o.add("oracle.record_ns_per_event", tp.oracle.nsPerEvent(), "ns")
	o.add("oracle.receptions_checked", sc.perRun(sc.receptions), "count")
	o.add("oracle.index_peak", float64(sc.indexPeak), "count")
	o.add("oracle.violations_per_run", sc.perRun(sc.violations), "count")
	o.add("fault.chaos_overhead_pct", overhead["fault.chaos"], "%")
	o.add("fault.episodes_per_run", ratio(float64(sc.faultEpisodes), float64(sc.runs)), "count")
	o.add("runner.parallel_speedup", speedup, "ratio")
	o.add("runner.slowest_share", slowest, "ratio")
	o.add("bench.trace_overhead_pct", 100*(ratio(float64(tracedWall), float64(untracedWall))-1), "%")

	tr.end(root)
	return o, tr.write(filepath.Join(dir, "spans.jsonl"))
}

// runnerCosts measures the sweep runner's fan-out at one and at two
// workers, returning the speedup and the share of the two-worker wall
// time the slowest unit took. Single-run workloads fan their own pairs
// out through runner.Sweep; the sweep workload runs Figures 6 and 10b
// and takes its slowest figure from one whole traced sweep.
func runnerCosts(o *outcome, tr *tracer, root int, w workload, seed int64, cycle []pair) (speedup, slowest float64) {
	if w.figs != nil {
		return sweepRunnerCosts(o, tr, root, w, seed)
	}
	const points = 6
	keys := make([]runner.Key, min(points, len(cycle)))
	for i := range keys {
		keys[i] = runner.Key{Sweep: w.name, Protocol: string(cycle[i].cfg.Protocol), X: float64(i)}
	}
	var wall [2]time.Duration
	var longest time.Duration
	for wi, workers := range []int{1, 2} {
		id := tr.begin(root, fmt.Sprintf("runner:workers=%d", workers))
		var mu sync.Mutex
		pf := func(k runner.Key, b sim.Budget) (metrics.Summary, error) {
			p := cycle[int(k.X)]
			c := p.cfg
			c.Budget = b
			start := time.Now()
			r, err := ewmac.Run(c)
			end := time.Now()
			tr.add(id, "run:"+p.label, start, end)
			if err != nil {
				return metrics.Summary{}, err
			}
			if workers == 2 {
				mu.Lock()
				longest = max(longest, end.Sub(start))
				mu.Unlock()
			}
			return r.Summary, nil
		}
		start := time.Now()
		recs, _, err := runner.Sweep(keys, pf, runner.Options{Workers: workers})
		wall[wi] = time.Since(start)
		tr.end(id)
		if err != nil {
			o.attempted++
			o.fail("runner", err)
		}
		for _, r := range recs {
			o.attempted++
			if r.Status != runner.StatusDone {
				o.fail(r.Key.String(), errors.New(r.Error))
			}
		}
	}
	return ratio(float64(wall[0]), float64(wall[1])), ratio(float64(longest), float64(wall[1]))
}

func sweepRunnerCosts(o *outcome, tr *tracer, root int, w workload, seed int64) (speedup, slowest float64) {
	opts := w.figOpts(seed)
	rp := newReplays(w.name)
	id := tr.begin(root, "sweep")
	frs, wall := runFigures(w.figs, opts, func(fig string, start, end time.Time) {
		tr.add(id, "figure:"+fig, start, end)
	})
	tr.end(id)
	tallyFigures(o, rp, frs, seed)
	var longest time.Duration
	for _, fr := range frs {
		longest = max(longest, fr.wall)
	}

	var pick []figureGen
	for _, f := range w.figs {
		if f.ID == "fig6" || f.ID == "fig10b" {
			pick = append(pick, f)
		}
	}
	var walls [2]time.Duration
	for wi, workers := range []int{1, 2} {
		id := tr.begin(root, fmt.Sprintf("runner:workers=%d", workers))
		opts.Workers = workers
		frs, walls[wi] = runFigures(pick, opts, func(fig string, start, end time.Time) {
			tr.add(id, "figure:"+fig, start, end)
		})
		tr.end(id)
		tallyFigures(o, rp, frs, seed)
	}
	return ratio(float64(walls[0]), float64(walls[1])), ratio(float64(longest), float64(wall))
}
