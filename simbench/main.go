// Command simbench is the simulator's benchmark. One invocation
// measures one workload and prints every metric as a "name value unit"
// line, then, as its last line, one JSON object:
//
//	{"correct": true, "attempted": 412, "failed": 0, "metrics": {"setup_s": {"value": 0.0091, "unit": "s"}, ...}}
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash simbench/run.sh -workload headline -seed 1 -seconds 20 -trace 0
//	bash simbench/run.sh -workload all -seed 1 -o /tmp/bench.json
//	bash simbench/run.sh -workload dense -trace 1 -trace-dir /tmp/dense
//
// The workloads are headline (the paper's Table 2 EW-MAC run), dense
// (200 sensors at 1.0 kbps, where channel fan-out and overlapping PHY
// arrivals dominate), chaos-verify (all five protocols under the chaos
// fault scenario, overload management and the streaming oracle) and
// sweep (all nine figure generators at QuickFigureOptions fidelity);
// README.md gives each one's reason. "all" runs each in its own
// process, one after another.
//
// With -trace 0 the metrics are the end-to-end ones, measured untraced:
// set-up time, host wall time per run (p50, p90), runs and simulated
// seconds per host second, allocations per run and peak RSS. Times and
// rates are scaled to a reference host speed (see speed.go). With
// -trace 1 they are the per-layer ones, from a separate traced run that
// also writes spans.jsonl and a CPU profile to -trace-dir.
//
// A run fails if it errors, panics or exceeds a budget, if its summary
// is not that of a healthy run, or if a same-seed replay of it reports
// anything different. The program exits nonzero when any run failed.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"ewmac"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark ends with.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

func (o outcome) result() result {
	r := result{
		Correct:   o.failed == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]valueUnit, len(o.metrics)),
	}
	for _, m := range o.metrics {
		r.Metrics[m.name] = valueUnit{m.value, m.unit}
	}
	return r
}

func run(args []string) int {
	fs := flag.NewFlagSet("simbench", flag.ContinueOnError)
	name := fs.String("workload", "", `workload to run: headline, dense, chaos-verify, sweep, or "all"`)
	seed := fs.Int64("seed", 1, "base seed S; single-run workloads cycle through seeds S…S+K-1")
	seconds := fs.Int("seconds", 20, "how long the untraced measurement runs")
	trace := fs.Int("trace", 0, "1 for the traced run, which prints the per-layer metrics")
	traceDir := fs.String("trace-dir", filepath.Join(".bench_build", "trace"), "where the traced run writes <workload>/spans.jsonl and cpu.pprof")
	out := fs.String("o", "", "also write the results, stamped with the build and host, to this JSON file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "simbench: -seconds must be at least 1, -trace 0 or 1, and no arguments may follow the flags")
		return 2
	}

	names := []string{*name}
	if *name == "all" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	results := map[string]result{}
	code := 0
	for _, n := range names {
		w, ok := findWorkload(n)
		if !ok {
			fmt.Fprintf(os.Stderr, "simbench: unknown workload %q\n", n)
			return 2
		}
		var r result
		var err error
		if *name == "all" {
			r, err = runChild(w.name, *seed, *seconds, *trace, *traceDir)
		} else {
			r, err = runOne(os.Stdout, w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, filepath.Join(*traceDir, w.name))
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "simbench: %s: %v\n", w.name, err)
			return 1
		}
		results[w.name] = r
		if !r.Correct {
			code = 1
		}
	}
	if *out != "" {
		if err := writeStamped(*out, *seed, *seconds, *trace, results); err != nil {
			fmt.Fprintf(os.Stderr, "simbench: %v\n", err)
			return 1
		}
	}
	return code
}

// runOne measures w in this process and prints its lines and result to
// stdout.
func runOne(stdout io.Writer, w workload, seed int64, budget time.Duration, trace bool, dir string) (result, error) {
	var o outcome
	switch {
	case trace:
		var err error
		if o, err = traced(w, seed, dir); err != nil {
			return result{}, err
		}
	case w.figs != nil:
		o = measureSweep(w, seed, budget)
	default:
		o = measurePairs(w, seed, budget, ewmac.Run)
	}
	o.note("failed_frac", ratio(float64(o.failed), float64(o.attempted)), "ratio")
	r := o.result()
	line, err := json.Marshal(r)
	if err != nil {
		return result{}, err
	}
	bw := bufio.NewWriter(stdout)
	for _, m := range append(o.metrics, o.notes...) {
		fmt.Fprintf(bw, "%s %s %s\n", m.name, strconv.FormatFloat(m.value, 'g', -1, 64), m.unit)
	}
	fmt.Fprintf(bw, "%s\n", line)
	return r, bw.Flush()
}

// runChild measures one workload in a fresh process, so no workload
// inherits another's heap or peak RSS, and passes its output through.
func runChild(name string, seed int64, seconds, trace int, traceDir string) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	var stdout bytes.Buffer
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace), "-trace-dir", traceDir)
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	os.Stdout.Write(stdout.Bytes())
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return result{}, errors.Join(runErr, fmt.Errorf("no result line: %w", err))
	}
	return r, nil
}

// writeStamped writes results with what makes them comparable: the
// toolchain, platform, CPU and source revision they came from.
func writeStamped(path string, seed int64, seconds, trace int, results map[string]result) error {
	env := map[string]any{
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"num_cpu":    runtime.NumCPU(),
		"cpu_model":  cpuModel(),
		"seed":       seed,
		"seconds":    seconds,
		"trace":      trace,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" || s.Key == "vcs.modified" {
				env[strings.ReplaceAll(s.Key, ".", "_")] = s.Value
			}
		}
	}
	b, err := json.MarshalIndent(map[string]any{"env": env, "workloads": results}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
