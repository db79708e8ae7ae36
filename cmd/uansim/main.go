// Command uansim runs one UASN MAC simulation scenario and prints its
// metric summary.
//
//	uansim -proto ewmac -nodes 60 -load 0.6 -sim 300s -seed 1
//	uansim -proto all -load 0.8              # compare the four protocols
//	uansim -proto ewmac -trace run.jsonl     # trace-v2 event stream
//	uansim -proto ewmac -spans run.spans     # causal-span JSONL
//	uansim -proto ewmac -slotprof run.slots  # waiting-resource profile
//	uansim -proto ewmac -timeseries ts.csv   # periodic health samples
//	uansim -proto ewmac -report run.json     # per-run report (JSON)
//	uansim -proto ewmac -report run.prom     # same, Prometheus text
//	uansim -proto all -verify                # streaming Equation-(1) conformance check
//	uansim -proto ewmac -http :8080          # live /metrics, /progress, pprof
//	uansim -proto ewmac -faults chaos.json   # fault-injection scenario
//	uansim -proto ewmac -load 4 -policy deadline -ttl 30s -admission 0.9 \
//	       -retry-burst 8 -v                  # graceful overload management
//	uansim -deadline 5m -max-events 100000000 # budget + livelock watchdog
//
// Every run executes under supervision: panics are reported with their
// stack instead of crashing, and -deadline/-max-events bound the run
// on top of the always-armed livelock watchdog. Output files (-trace,
// -spans, -slotprof, -timeseries, -report) are published atomically
// and only when the run completes — a failed or interrupted run leaves
// the previous complete file, never a torn one.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"ewmac"
	"ewmac/internal/experiment"
	"ewmac/internal/fault"
	"ewmac/internal/metrics"
	"ewmac/internal/obs"
	"ewmac/internal/runner"
	"ewmac/internal/sim"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		proto   = flag.String("proto", "ewmac", "protocol: ewmac, sfama, ropa, csmac, saloha, or all (the paper's four)")
		nodes   = flag.Int("nodes", 60, "number of sensing nodes")
		sinks   = flag.Int("sinks", 4, "number of surface sinks")
		load    = flag.Float64("load", 0.5, "network-wide offered load in kbps")
		bits    = flag.Int("bits", 2048, "data packet payload in bits (1024-4096)")
		side    = flag.Float64("side", 1000, "deployment cube side in meters")
		mobile  = flag.Float64("mobile", 0.5, "fraction of drifting sensors")
		simTime = flag.Duration("sim", 300*time.Second, "simulated time")
		seed    = flag.Int64("seed", 1, "random seed")
		verbose = flag.Bool("v", false, "print extended counters")

		policy     = flag.String("policy", "", "queue drop policy: tail (default), oldest, or deadline")
		ttl        = flag.Duration("ttl", 0, "per-packet deadline for -policy deadline (0 = none)")
		admission  = flag.Float64("admission", 0, "admission-control high-water mark as a queue fraction in (0,1] (0 = off)")
		retryBurst = flag.Int("retry-burst", 0, "retry-budget token-bucket burst (0 = unbudgeted)")
		retryRate  = flag.Float64("retry-rate", 0, "retry-budget refill rate in tokens/s (0 = default with -retry-burst)")
		closedLoop = flag.Bool("closed-loop", false, "withhold arrivals at the source while the MAC reports backpressure (needs -admission)")
		prioEvery  = flag.Int("priority-every", 0, "mark every Nth generated packet high-priority (0 = never)")

		faults     = flag.String("faults", "", "fault-injection scenario JSON file (see examples/faults/)")
		trace      = flag.String("trace", "", "write the trace-v2 JSONL event stream to this file (single protocol only)")
		spans      = flag.String("spans", "", "write the causal-span JSONL stream to this file (single protocol only)")
		slotprof   = flag.String("slotprof", "", "write the per-slot waiting-resource profile to this file (single protocol only)")
		timeseries = flag.String("timeseries", "", "write periodic CSV health samples to this file (single protocol only)")
		report     = flag.String("report", "", "write a run report to this file: .json for JSON, otherwise Prometheus text (single protocol only)")
		sample     = flag.Duration("sample", time.Second, "sampling period for -timeseries, in simulated time")
		verify     = flag.Bool("verify", false, "verify every reception against the paper's Equation (1) as the run streams; exit nonzero on any violation")
		httpAddr   = flag.String("http", "", "serve live run introspection (/metrics, /progress, /debug/pprof) on this address")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file")

		deadline  = flag.Duration("deadline", 0, "wall-clock budget per run (0 = unbounded)")
		maxEvents = flag.Uint64("max-events", 0, "simulation event budget per run (0 = unbounded)")
	)
	flag.Parse()

	var protos []ewmac.Protocol
	if *proto == "all" {
		protos = ewmac.Protocols
	} else {
		protos = []ewmac.Protocol{ewmac.Protocol(*proto)}
	}

	var scenario *fault.Scenario
	if *faults != "" {
		var err error
		if scenario, err = fault.Load(*faults); err != nil {
			fmt.Fprintf(os.Stderr, "uansim: %v\n", err)
			return 1
		}
	}

	var overload ewmac.OverloadConfig
	if *policy != "" {
		p, err := ewmac.ParseDropPolicy(*policy)
		if err != nil {
			fmt.Fprintf(os.Stderr, "uansim: %v\n", err)
			return 2
		}
		overload.Policy = p
	}
	overload.PacketTTL = *ttl
	overload.HighWater = *admission
	overload.RetryBudget = ewmac.RetryBudgetConfig{Burst: *retryBurst, RatePerSec: *retryRate}
	overload.PriorityEvery = *prioEvery

	cfgFor := func(p ewmac.Protocol) ewmac.Config {
		cfg := ewmac.DefaultConfig(p)
		cfg.Nodes = *nodes
		cfg.Sinks = *sinks
		cfg.OfferedLoadKbps = *load
		cfg.DataBits = *bits
		cfg.RegionSide = *side
		cfg.MobileFraction = *mobile
		cfg.SimTime = *simTime
		cfg.Seed = *seed
		cfg.Faults = scenario
		cfg.Overload = overload
		cfg.ClosedLoop = *closedLoop
		return cfg
	}
	// A bad flag combination is a usage error: reject it before any run
	// starts or any output is opened.
	for _, p := range protos {
		if err := cfgFor(p).Validate(); err != nil {
			fmt.Fprintf(os.Stderr, "uansim: %v\n", err)
			return 2
		}
	}

	// Observability outputs are one file per run; with several
	// protocols selected they would silently interleave or clobber each
	// other, so that combination is an error, not a no-op.
	if len(protos) > 1 {
		for _, o := range []struct{ name, val string }{
			{"trace", *trace}, {"spans", *spans}, {"slotprof", *slotprof},
			{"timeseries", *timeseries}, {"report", *report},
		} {
			if o.val != "" {
				fmt.Fprintf(os.Stderr,
					"uansim: -%s writes one file per run and needs a single protocol; got %d (-proto %s)\n",
					o.name, len(protos), *proto)
				return 2
			}
		}
	}

	var live *obs.Live
	if *httpAddr != "" {
		live = obs.NewLive()
		addr, err := live.Serve(*httpAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "uansim: -http: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "uansim: introspection on http://%s (/metrics, /progress, /debug/pprof)\n", addr)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "uansim: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "uansim: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	var totalViolations uint64
	fmt.Printf("%-8s %10s %8s %10s %9s %12s %9s\n",
		"protocol", "thr(kbps)", "deliv%", "exec(s)", "pow(mW)", "overhead(b)", "colls")
	for _, p := range protos {
		cfg := cfgFor(p)

		// The run executes under the supervisor: a panic surfaces as a
		// quarantined record with a stack, and a budget abort as a failed
		// one. Output files are staged for the run and published only
		// when it completes.
		obsCfg, commitObs, abortObs, err := observeFor(*trace, *spans, *slotprof, *timeseries, *report, *sample)
		if err != nil {
			fmt.Fprintf(os.Stderr, "uansim: %v\n", err)
			return 1
		}
		cfg.Observe = obsCfg
		if *verify {
			if cfg.Observe == nil {
				cfg.Observe = &experiment.Observe{}
			}
			cfg.Observe.Verify = true
		}
		if live != nil {
			if cfg.Observe == nil {
				cfg.Observe = &experiment.Observe{}
			}
			cfg.Observe.Recorder = obs.Multi(cfg.Observe.Recorder, live)
			live.SetRun(p.DisplayName(), cfg.Seed, cfg.Nodes)
		}
		var res *ewmac.Result
		pf := func(_ runner.Key, b sim.Budget) (metrics.Summary, error) {
			cfg.Budget = b
			r, err := ewmac.Run(cfg)
			if err != nil {
				return metrics.Summary{}, err
			}
			res = r
			return r.Summary, nil
		}
		rec := runner.Supervise(
			runner.Key{Sweep: "uansim", Protocol: string(p), X: *load}, pf,
			runner.Options{
				Budget:  sim.Budget{Deadline: *deadline, MaxEvents: *maxEvents},
				OnEvent: func(line string) { fmt.Fprintln(os.Stderr, "  "+line) },
			})
		if rec.Status != runner.StatusDone {
			abortObs()
			fmt.Fprintf(os.Stderr, "uansim: %s: %s\n", p.DisplayName(), rec.Error)
			if rec.Stack != "" {
				fmt.Fprint(os.Stderr, rec.Stack)
			}
			return 1
		}
		if err := commitObs(); err != nil {
			fmt.Fprintf(os.Stderr, "uansim: %v\n", err)
			return 1
		}
		if *report != "" {
			if err := writeReport(*report, res.Report); err != nil {
				fmt.Fprintf(os.Stderr, "uansim: report: %v\n", err)
				return 1
			}
		}
		s := res.Summary
		fmt.Printf("%-8s %10.4f %8.1f %10.2f %9.1f %12d %9d\n",
			p.DisplayName(), s.ThroughputKbps, 100*s.DeliveryRatio,
			s.ExecutionTime.Seconds(), s.MeanPowerMW, s.OverheadBits, s.PHY.Collisions)
		if *verify && res.Conformance != nil {
			st := res.Conformance
			if st.Violations == 0 {
				fmt.Printf("  conformance: ok (%d receptions, %d losses checked; peak index %d arrivals / %d tx spans)\n",
					st.Receptions, st.Losses, st.PeakArrivals, st.PeakTxSpans)
			} else {
				totalViolations += st.Violations
				fmt.Printf("  conformance: %d VIOLATIONS %v\n", st.Violations, st.ByReason)
			}
		}
		if *verbose {
			fmt.Printf("  generated=%d delivered=%d (extra=%d) acked=%d rts=%d cts=%d retrans=%d\n",
				s.MAC.Generated, s.MAC.DeliveredPackets, s.MAC.ExtraDeliveredPackets,
				s.MAC.AckedPackets, s.MAC.RTSSent, s.MAC.CTSSent, s.MAC.Retransmissions)
			fmt.Printf("  extra: attempts=%d grants=%d completions=%d\n",
				s.MAC.ExtraAttempts, s.MAC.ExtraGrants, s.MAC.ExtraCompletions)
			if scenario != nil || s.MAC.Dropped > 0 || s.MAC.RetryDeferrals > 0 {
				fmt.Printf("  robustness: dropped=%d (retry=%d dead-peer=%d queue-full=%d oldest=%d expired=%d shed=%d) retry-deferrals=%d probes=%d impossible-rx=%d\n",
					s.MAC.Dropped, s.MAC.DroppedRetry, s.MAC.DroppedDeadPeer,
					s.MAC.DroppedQueueFull, s.MAC.DroppedOldest,
					s.MAC.DroppedExpired, s.MAC.DroppedShed,
					s.MAC.RetryDeferrals, s.MAC.Probes, s.MAC.ImpossibleRx)
			}
			if scenario != nil {
				fmt.Printf("  recovery: suspects=%d deads=%d resurrections=%d watchdog-resets=%d\n",
					s.MAC.SuspectMarks, s.MAC.DeadMarks, s.MAC.Resurrections, s.MAC.WatchdogResets)
			}
			if res.Resilience != nil {
				r := res.Resilience
				if scenario != nil {
					fmt.Printf("  resilience: episodes=%d recovered=%d meanTTR=%.1fs degraded=%.1fs (delivery ratio %.2f) stranded=%d\n",
						r.Episodes, r.Recovered, r.MeanTimeToRecoverS, r.DegradedS,
						r.DegradedDeliveryRatio, r.StrandedPackets)
				}
				if r.OverloadEpisodes > 0 || r.ShedPackets > 0 || r.RetryDeferrals > 0 {
					fmt.Printf("  overload: episodes=%d shedding=%.1fs shed-packets=%d retry-deferrals=%d\n",
						r.OverloadEpisodes, r.OverloadS, r.ShedPackets, r.RetryDeferrals)
				}
			}
			fmt.Printf("  topology: mean degree=%.1f max pair delay=%v\n",
				res.MeanDegree, res.MaxPairDelay.Truncate(time.Millisecond))
			fmt.Printf("  fairness (Jain): %.3f\n", s.Fairness)
		}
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "uansim: %v\n", err)
			return 1
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "uansim: %v\n", err)
			return 1
		}
	}
	if totalViolations > 0 {
		fmt.Fprintf(os.Stderr, "uansim: conformance verification failed: %d violations\n", totalViolations)
		return 1
	}
	return 0
}

// observeFor builds the run's Observe section from the output flags.
// Output files are staged atomically: commit publishes them (fsync +
// rename), abort discards the staged content and leaves any previous
// files untouched. Both are safe to call when nothing was opened. Each
// stream consumer buffers its own output and drains it when the run
// ends, so the staged files are handed over unbuffered.
func observeFor(trace, spans, slotprof, timeseries, report string, sample time.Duration) (*experiment.Observe, func() error, func(), error) {
	var staged []*obs.AtomicFile
	commit := func() error {
		for _, a := range staged {
			if err := a.Close(); err != nil {
				return err
			}
		}
		return nil
	}
	abort := func() {
		for _, a := range staged {
			a.Abort()
		}
	}
	if trace == "" && spans == "" && slotprof == "" && timeseries == "" && report == "" {
		return nil, commit, abort, nil
	}
	o := &experiment.Observe{SampleEvery: sample, Report: report != ""}
	for _, out := range []struct {
		path string
		w    *io.Writer
	}{{trace, &o.Trace}, {spans, &o.Spans}, {slotprof, &o.SlotProfile}, {timeseries, &o.TimeSeries}} {
		if out.path == "" {
			continue
		}
		a, err := obs.CreateAtomic(out.path)
		if err != nil {
			abort()
			return nil, nil, nil, err
		}
		staged = append(staged, a)
		*out.w = a
	}
	return o, commit, abort, nil
}

// writeReport renders the run report and publishes it atomically,
// choosing the format by extension: .json for indented JSON, anything
// else Prometheus text.
func writeReport(path string, rep *ewmac.RunReport) error {
	var buf bytes.Buffer
	if strings.HasSuffix(path, ".json") {
		if err := rep.WriteJSON(&buf); err != nil {
			return err
		}
	} else if err := rep.WriteProm(&buf); err != nil {
		return err
	}
	return obs.WriteFileAtomic(path, buf.Bytes())
}
