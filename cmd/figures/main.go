// Command figures regenerates the paper's evaluation tables and
// figures. With no arguments it runs everything; otherwise pass any of
// table2, fig6, fig7, fig8, fig9a, fig9b, fig10a, fig10b, fig11,
// ext-pktsize.
//
//	figures -seeds 3 -sim 300s -workers 8 -csv out/ fig6 fig11
//	figures -deadline 10m -max-events 200000000
//	figures -faults examples/faults/chaos.json  # every figure under faults
//
// The selected figures run as one plan: a point (protocol, sensors,
// load, payload) that several figures share runs once, and -workers
// bounds the points in flight. Figure 11 reuses every Figure 6 point,
// so the nine figures' 220 table cells take 140 runs.
//
// -deadline/-max-events bound each point's run, and the livelock
// watchdog is always armed. A point that panics or exceeds its budget
// is quarantined as a NaN cell instead of aborting the run, and the
// process then exits with status 3.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"ewmac/internal/fault"
	"ewmac/internal/figures"
	"ewmac/internal/obs"
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
		workers = flag.Int("workers", 0, "max points in flight (0 = GOMAXPROCS); a point runs its seeds one after another, and a point that several selected figures share runs once")

		httpAddr  = flag.String("http", "", "serve live sweep introspection (/metrics, /progress, /debug/pprof) on this address")
		deadline  = flag.Duration("deadline", 0, "wall-clock budget per sweep point (0 = unbounded)")
		maxEvents = flag.Uint64("max-events", 0, "simulation event budget per sweep point (0 = unbounded)")
	)
	flag.Parse()

	opts := figures.Options{
		SimTime: *simTime,
		Workers: *workers,
		Budget:  sim.Budget{Deadline: *deadline, MaxEvents: *maxEvents},
	}
	if *faults != "" {
		scenario, err := fault.Load(*faults)
		if err != nil {
			fmt.Fprintf(os.Stderr, "figures: %v\n", err)
			return 1
		}
		opts.Faults = scenario
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

	if !*quiet {
		opts.Progress = func(line string) { fmt.Fprintln(os.Stderr, "  "+line) }
	}

	want := map[string]bool{}
	for _, a := range flag.Args() {
		want[strings.ToLower(a)] = true
	}
	all := len(want) == 0

	if all || want["table2"] {
		fmt.Println(figures.Table2())
	}

	var ids []string
	for _, fg := range figures.All() {
		if all || want[fg.ID] {
			ids = append(ids, fg.ID)
		}
	}
	if len(ids) == 0 {
		return 0
	}

	// One plan runs every distinct point of the selected figures once;
	// the tables come back in selection order.
	start := time.Now()
	tabs, stats, err := figures.Plan(ids, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "figures: %v\n", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "  (%d figure(s), %d distinct point(s) took %v)\n",
		len(ids), stats.Points, time.Since(start).Truncate(time.Millisecond))
	for i, t := range tabs {
		fmt.Println(t.Render())
		for _, p := range t.Protocols {
			for _, msg := range t.Failed[p] {
				fmt.Fprintf(os.Stderr, "  WARNING %s %s: %s\n", ids[i], p.DisplayName(), msg)
			}
		}
		if *csvDir != "" {
			err := os.MkdirAll(*csvDir, 0o755)
			if err == nil {
				err = obs.WriteFileAtomic(filepath.Join(*csvDir, ids[i]+".csv"), []byte(t.CSV()))
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "figures: %v\n", err)
				return 1
			}
		}
	}
	if stats.Quarantined > 0 {
		fmt.Fprintf(os.Stderr, "figures: %d point(s) quarantined; their cells are NaN\n", stats.Quarantined)
		return 3
	}
	return 0
}
