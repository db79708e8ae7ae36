// Command figures regenerates the paper's evaluation tables and
// figures. With no arguments it runs everything; otherwise pass any of
// table2, fig6, fig7, fig8, fig9a, fig9b, fig10a, fig10b, fig11.
//
//	figures -seeds 3 -sim 300s -workers 8 -csv out/ fig6 fig11
//	figures -resume run.manifest -csv out/      # checkpoint + resume
//	figures -deadline 10m -max-events 200e6 -retries 2
//	figures -faults examples/faults/chaos.json  # every figure under faults
//
// With -resume, every finished sweep point is journaled to the given
// manifest; re-running the same command after an interruption (even
// SIGKILL) skips the completed points and produces bit-identical
// tables. -deadline/-max-events bound each point's run; points that
// exceed the budget are retried up to -retries times with a doubled
// budget, then quarantined as NaN cells instead of aborting the run.
package main

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"ewmac/internal/fault"
	"ewmac/internal/figures"
	"ewmac/internal/obs"
	"ewmac/internal/runner"
	"ewmac/internal/sim"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		seeds   = flag.Int("seeds", 3, "seeds averaged per data point")
		simTime = flag.Duration("sim", 300*time.Second, "simulated time per run")
		faults  = flag.String("faults", "", "fault-injection scenario JSON applied to every sweep point (see examples/faults/)")
		csvDir  = flag.String("csv", "", "directory to write per-figure CSV files (optional)")
		quiet   = flag.Bool("q", false, "suppress progress lines")
		workers = flag.Int("workers", 0, "max figures in flight, and max points in flight per figure (0 = GOMAXPROCS); each point still runs its seeds concurrently")

		httpAddr  = flag.String("http", "", "serve live sweep introspection (/metrics, /progress, /debug/pprof) on this address")
		resume    = flag.String("resume", "", "checkpoint manifest path: journal finished points and skip them on re-run")
		deadline  = flag.Duration("deadline", 0, "wall-clock budget per sweep point (0 = unbounded)")
		maxEvents = flag.Uint64("max-events", 0, "simulation event budget per sweep point (0 = unbounded)")
		retries   = flag.Int("retries", 1, "retries for budget-exceeded points, each with a doubled budget")
	)
	flag.Parse()

	opts := figures.Options{
		SimTime: *simTime,
		Workers: *workers,
		Budget:  sim.Budget{Deadline: *deadline, MaxEvents: *maxEvents},
		Retries: *retries,
		Backoff: 100 * time.Millisecond,
	}
	// The scenario content (not the path) becomes part of the resume
	// fingerprint below: pointing the same manifest at an edited
	// scenario file must invalidate it, and renaming the file must not.
	var faultsFP string
	if *faults != "" {
		scenario, err := fault.Load(*faults)
		if err != nil {
			fmt.Fprintf(os.Stderr, "figures: %v\n", err)
			return 1
		}
		opts.Faults = scenario
		raw, err := os.ReadFile(*faults)
		if err != nil {
			fmt.Fprintf(os.Stderr, "figures: %v\n", err)
			return 1
		}
		h := fnv.New64a()
		h.Write(raw)
		faultsFP = fmt.Sprintf("%016x", h.Sum64())
	}
	for s := int64(1); s <= int64(*seeds); s++ {
		opts.Seeds = append(opts.Seeds, s)
	}
	if *httpAddr != "" {
		live := obs.NewLive()
		addr, err := live.Serve(*httpAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "figures: -http: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "  introspection on http://%s (/metrics, /progress, /debug/pprof)\n", addr)
		opts.Live = live
	}

	var progressMu sync.Mutex
	if !*quiet {
		opts.Progress = func(line string) {
			progressMu.Lock()
			defer progressMu.Unlock()
			fmt.Fprintln(os.Stderr, "  "+line)
		}
	}

	if *resume != "" {
		// The fingerprint covers exactly the inputs that determine point
		// results; budget/worker/retry settings are free to change between
		// the interrupted run and the resume.
		fp := fmt.Sprintf("figures/v1|seeds=%d|sim=%s|faults=%s", *seeds, simTime.String(), faultsFP)
		m, err := runner.OpenManifest(*resume, fp)
		if err != nil {
			fmt.Fprintf(os.Stderr, "figures: %v\n", err)
			return 1
		}
		defer m.Close()
		if n := m.Loaded(); n > 0 && !*quiet {
			fmt.Fprintf(os.Stderr, "  resuming %s: %d points already done\n", *resume, n)
		}
		opts.Manifest = m
	}

	want := map[string]bool{}
	for _, a := range flag.Args() {
		want[strings.ToLower(a)] = true
	}
	all := len(want) == 0

	if all || want["table2"] {
		fmt.Println(figures.Table2())
	}

	type figJob struct {
		id  string
		run func(figures.Options) (*figures.Table, error)
	}
	var selected []figJob
	for _, fg := range figures.All() {
		if all || want[fg.ID] {
			selected = append(selected, figJob{fg.ID, fg.Run})
		}
	}

	// Figures run concurrently too; the per-point worker pool inside each
	// sweep and the global run gate in the experiment package keep total
	// CPU use bounded regardless of how many figures are in flight.
	// Output stays in selection order: each figure's results print as
	// soon as it and all its predecessors are done.
	type figRes struct {
		t    *figures.Table
		err  error
		took time.Duration
	}
	figPar := *workers
	if figPar <= 0 {
		figPar = runtime.GOMAXPROCS(0)
	}
	sem := make(chan struct{}, figPar)
	results := make([]figRes, len(selected))
	done := make([]chan struct{}, len(selected))
	for i := range selected {
		done[i] = make(chan struct{})
		go func(i int) {
			defer close(done[i])
			sem <- struct{}{}
			defer func() { <-sem }()
			start := time.Now()
			t, err := selected[i].run(opts)
			results[i] = figRes{t: t, err: err, took: time.Since(start)}
		}(i)
	}

	quarantined := 0
	for i, fg := range selected {
		<-done[i]
		r := results[i]
		if r.err != nil {
			fmt.Fprintf(os.Stderr, "figures: %s: %v\n", fg.id, r.err)
			return 1
		}
		fmt.Println(r.t.Render())
		fmt.Fprintf(os.Stderr, "  (%s took %v)\n", fg.id, r.took.Truncate(time.Millisecond))
		if st := r.t.Stats; st.Resumed > 0 || st.Retries > 0 || st.Quarantined > 0 {
			fmt.Fprintf(os.Stderr, "  (%s supervision: %d/%d done, %d resumed, %d retries, %d quarantined)\n",
				fg.id, st.Completed, st.Points, st.Resumed, st.Retries, st.Quarantined)
		}
		if r.t.Failed != nil {
			quarantined += r.t.Stats.Quarantined
			for _, p := range r.t.Protocols {
				for _, msg := range r.t.Failed[p] {
					fmt.Fprintf(os.Stderr, "  WARNING %s %s: %s\n", fg.id, p.DisplayName(), msg)
				}
			}
		}
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				fmt.Fprintf(os.Stderr, "figures: %v\n", err)
				return 1
			}
			path := filepath.Join(*csvDir, fg.id+".csv")
			if err := obs.WriteFileAtomic(path, []byte(r.t.CSV())); err != nil {
				fmt.Fprintf(os.Stderr, "figures: %v\n", err)
				return 1
			}
		}
	}
	if quarantined > 0 {
		fmt.Fprintf(os.Stderr, "figures: %d point(s) quarantined; their cells are NaN\n", quarantined)
		return 3
	}
	return 0
}
