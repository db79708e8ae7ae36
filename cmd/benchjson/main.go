// Command benchjson runs the simulator's performance benchmarks and
// writes the results as machine-readable JSON, so hot-path regressions
// can be tracked across commits.
//
//	benchjson -o out.json                          # -o is required
//	benchjson -o out.json -benchtime 3s            # longer sampling
//	benchjson -o out.json -quick                   # engine/channel micro-benches only
//	benchjson -o out.json -compare BENCH_16.json   # print % deltas vs a saved run,
//	                                               # exit nonzero past -threshold
//	benchjson -o out.json -compare BENCH_16.json -alloc-threshold 10
//	                                               # also gate allocs/op, and bytes/op
//	                                               # on the obs-off scenario row
//
// There is no default output path, so a bare run cannot overwrite a
// committed baseline; it prints usage and exits 2. The file holds the
// results and the host they ran on (Go version, GOMAXPROCS, CPU
// model); -compare also reads the bare result arrays that files before
// BENCH_16.json hold.
//
// The full suite runs the engine schedule/run micro-benchmark, the
// channel broadcast micro-benchmark at two densities (40 and 200
// nodes), and a short EW-MAC scenario with observability off and
// fully on — the pair that bounds the event bus's cost. A scenario row
// is per 60 s run, averaged over a fixed list of seeds.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"ewmac"
	"ewmac/internal/acoustic"
	"ewmac/internal/channel"
	"ewmac/internal/energy"
	"ewmac/internal/obs"
	"ewmac/internal/packet"
	"ewmac/internal/phy"
	"ewmac/internal/sim"
	"ewmac/internal/topology"
	"ewmac/internal/vec"
)

// result is one benchmark's measurements.
type result struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// EventsPerSec is the discrete-event execution rate, where known.
	EventsPerSec float64 `json:"events_per_s,omitempty"`
	Iterations   int     `json:"iterations"`
}

// report is the file benchjson writes: the results and the host that
// produced them, without which two files' ns/op are not comparable.
type report struct {
	Env     hostEnv  `json:"env"`
	Results []result `json:"results"`
}

// hostEnv is what simbench -o stamps its results with, minus the
// workload settings.
type hostEnv struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	CPUModel   string `json:"cpu_model"`
}

func currentEnv() hostEnv {
	return hostEnv{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
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

func main() {
	os.Exit(run())
}

func run() int {
	// Register the testing package's flags (test.benchtime below) so
	// testing.Benchmark works outside "go test".
	testing.Init()
	out := flag.String("o", "", "output file (required)")
	benchtime := flag.Duration("benchtime", time.Second, "target sampling time per benchmark")
	quick := flag.Bool("quick", false, "run only the engine/channel micro-benchmarks")
	compare := flag.String("compare", "", "baseline JSON to diff against (per-benchmark % deltas)")
	threshold := flag.Float64("threshold", 5, "ns/op regression % beyond which -compare exits nonzero")
	allocThreshold := flag.Float64("alloc-threshold", 0, "allocs/op regression %, and bytes/op on the obs-off scenario row, beyond which -compare exits nonzero (0 disables); any allocation on a zero-alloc baseline row fails")
	flag.Parse()
	if *out == "" {
		fmt.Fprintln(os.Stderr, "benchjson: -o is required (usage: benchjson -o out.json [-benchtime D] [-quick] [-compare base.json])")
		return 2
	}

	// testing.Benchmark honours this global; there is no public field
	// for it on testing.B.
	if err := flag.Set("test.benchtime", benchtime.String()); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		return 1
	}

	results := []result{benchEngine()}
	for _, n := range []int{40, 200} {
		chRes, err := benchChannel(n)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			return 1
		}
		results = append(results, chRes)
	}
	if !*quick {
		results = append(results,
			benchScenario("ewmac/obs-off", nil),
			benchScenario("ewmac/obs-on", &ewmac.Observe{
				Recorder: obs.RecorderFunc(func(sim.Time, obs.Event) {}),
				Trace:    io.Discard,
				Report:   true,
			}),
		)
	}

	if err := writeResults(*out, results); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		return 1
	}
	for _, r := range results {
		fmt.Printf("%-22s %12.0f ns/op %8d allocs/op", r.Name, r.NsPerOp, r.AllocsPerOp)
		if r.EventsPerSec > 0 {
			fmt.Printf(" %12.0f events/s", r.EventsPerSec)
		}
		fmt.Println()
	}

	if *compare != "" {
		regressed, err := compareResults(*compare, results, *threshold, *allocThreshold)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			return 1
		}
		if regressed {
			return 2
		}
	}
	return 0
}

// writeResults lands the JSON, stamped with this host, atomically: a
// crash mid-write must not leave a torn baseline for a later -compare
// to misparse.
func writeResults(path string, results []result) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report{Env: currentEnv(), Results: results}); err != nil {
		return err
	}
	return obs.WriteFileAtomic(path, buf.Bytes())
}

// readResults reads a file writeResults wrote, or a bare result array
// as files before BENCH_16.json hold.
func readResults(path string) ([]result, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	dst := any(&rep)
	if b := bytes.TrimSpace(raw); len(b) > 0 && b[0] == '[' {
		dst = &rep.Results
	}
	if err := json.Unmarshal(raw, dst); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	if rep.Results == nil {
		return nil, fmt.Errorf("parsing %s: no results", path)
	}
	return rep.Results, nil
}

// compareResults prints per-benchmark deltas of the current run against
// the baseline file and reports whether any benchmark's ns/op regressed
// beyond threshold percent, or (when allocThreshold > 0) its allocs/op
// — and, on the obs-off scenario row, its bytes/op — regressed beyond
// allocThreshold percent. A baseline row at zero allocs/op has no
// percentage to regress by, so under the allocation gate any
// allocation on it counts as a regression.
func compareResults(path string, cur []result, threshold, allocThreshold float64) (regressed bool, err error) {
	old, err := readResults(path)
	if err != nil {
		return false, err
	}
	base := make(map[string]result, len(old))
	for _, r := range old {
		base[r.Name] = r
	}

	pct := func(oldV, newV float64) string {
		if oldV == 0 {
			return "     n/a"
		}
		return fmt.Sprintf("%+7.1f%%", (newV-oldV)/oldV*100)
	}
	fmt.Printf("\ncompare vs %s (ns/op regression threshold %.1f%%):\n", path, threshold)
	fmt.Printf("%-22s %14s %14s %9s %9s %9s\n", "benchmark", "old ns/op", "new ns/op", "Δns/op", "Δallocs", "ΔB/op")
	for _, r := range cur {
		o, ok := base[r.Name]
		if !ok {
			fmt.Printf("%-22s %14s (no baseline entry)\n", r.Name, "-")
			continue
		}
		fmt.Printf("%-22s %14.0f %14.0f %9s %9s %9s",
			r.Name, o.NsPerOp, r.NsPerOp,
			pct(o.NsPerOp, r.NsPerOp),
			pct(float64(o.AllocsPerOp), float64(r.AllocsPerOp)),
			pct(float64(o.BytesPerOp), float64(r.BytesPerOp)))
		if o.EventsPerSec > 0 && r.EventsPerSec > 0 {
			fmt.Printf("  events/s %s", pct(o.EventsPerSec, r.EventsPerSec))
		}
		if o.NsPerOp > 0 && !math.IsNaN(r.NsPerOp) &&
			(r.NsPerOp-o.NsPerOp)/o.NsPerOp*100 > threshold {
			regressed = true
			fmt.Printf("  REGRESSED")
		}
		if allocThreshold > 0 && allocsRegressed(o.AllocsPerOp, r.AllocsPerOp, allocThreshold) {
			regressed = true
			fmt.Printf("  ALLOCS-REGRESSED")
		}
		if allocThreshold > 0 && bytesGated(r.Name) && allocsRegressed(o.BytesPerOp, r.BytesPerOp, allocThreshold) {
			regressed = true
			fmt.Printf("  BYTES-REGRESSED")
		}
		fmt.Println()
	}
	for _, o := range old {
		found := false
		for _, r := range cur {
			if r.Name == o.Name {
				found = true
				break
			}
		}
		if !found {
			fmt.Printf("%-22s (baseline entry not in this run)\n", o.Name)
		}
	}
	return regressed, nil
}

// allocsRegressed reports whether allocs/op (or bytes/op) rose from
// oldV to newV by more than threshold percent; from a zero baseline,
// any allocation does.
func allocsRegressed(oldV, newV int64, threshold float64) bool {
	if oldV == 0 {
		return newV > 0
	}
	return float64(newV-oldV)/float64(oldV)*100 > threshold
}

// benchEngine mirrors internal/sim's BenchmarkEngineScheduleRun: one op
// schedules and executes a batch of 1024 events.
func benchEngine() result {
	const batch = 1024
	br := testing.Benchmark(func(b *testing.B) {
		e := sim.NewEngine(1)
		r := rand.New(rand.NewSource(1))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < batch; j++ {
				e.ScheduleIn(time.Duration(r.Intn(1000))*time.Microsecond, sim.PriorityMAC, func() {})
			}
			e.Run()
		}
	})
	res := toResult("engine/schedule-run", br)
	if ns := res.NsPerOp; ns > 0 {
		res.EventsPerSec = batch / ns * 1e9
	}
	return res
}

// benchChannel mirrors internal/channel's BenchmarkChannelBroadcast:
// one op broadcasts a control frame to a static n-node deployment and
// drains the scheduled arrivals — the geometry build + wave/lane hot
// path. The 40-node shape is the historical baseline; 200 nodes
// exercises the same path at a receiver fan-out where per-receiver
// costs dominate setup. Setup failures are reported as errors, not
// panics: a bench harness must exit with a diagnosable status.
func benchChannel(n int) (result, error) {
	eng := sim.NewEngine(1)
	model := acoustic.DefaultModel()
	nodes := make([]*topology.Node, n)
	for i := range nodes {
		nodes[i] = &topology.Node{
			ID:  packet.NodeID(i + 1),
			Pos: vec.V3{X: float64(i%8) * 300, Y: float64(i/8) * 300, Z: 100},
		}
	}
	region := vec.Box{Min: vec.V3{X: -1e4, Y: -1e4, Z: 0}, Max: vec.V3{X: 1e4, Y: 1e4, Z: 1e4}}
	net, err := topology.NewNetwork(region, model, nodes)
	if err != nil {
		return result{}, fmt.Errorf("channel bench topology: %w", err)
	}
	ch, err := channel.New(eng, net)
	if err != nil {
		return result{}, fmt.Errorf("channel bench: %w", err)
	}
	for i := range nodes {
		m, err := phy.NewModem(phy.Config{
			ID: packet.NodeID(i + 1), Engine: eng, Model: model,
			Medium: ch, Energy: energy.DefaultProfile(),
		})
		if err != nil {
			return result{}, fmt.Errorf("channel bench modem %d: %w", i+1, err)
		}
		if err := ch.Register(m); err != nil {
			return result{}, fmt.Errorf("channel bench: %w", err)
		}
	}
	f := &packet.Frame{
		Kind: packet.KindRTS, Src: 1, Dst: 2,
		Neighbors: []packet.NeighborInfo{{ID: 2, Delay: time.Second}},
	}
	dur := 10 * time.Millisecond
	var benchErr error
	br := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := ch.Broadcast(1, f, dur); err != nil {
				benchErr = err
				b.Fatal(err)
			}
			eng.Run()
		}
	})
	if benchErr != nil {
		return result{}, fmt.Errorf("channel bench broadcast: %w", benchErr)
	}
	return toResult(fmt.Sprintf("channel/broadcast-%d", n), br), nil
}

// bytesGated reports whether -compare gates a row's bytes/op. Only the
// obs-off scenario's bytes repeat between runs (to within ~50 B): a
// micro-benchmark's bytes/op carry warm-up costs amortized over however
// many iterations it ran, and obs-on allocates a fresh trace buffer
// whenever the writer goroutine has not yet handed one back, so its
// bytes follow the scheduler (1.61–1.82 MB per run on one host).
func bytesGated(name string) bool { return name == "ewmac/obs-off" }

// scenarioSeeds is the fixed seed list one scenario op runs, one 60 s
// run per seed. Every op runs the same list, so the per-run figures do
// not depend on how many iterations testing.Benchmark picks.
var scenarioSeeds = []int64{1, 2, 3, 4}

// benchScenario measures short Table 2 EW-MAC runs; observe toggles
// the full observability stack to expose its marginal cost. The row is
// per run: each op covers every seed in scenarioSeeds, and the op's
// figures are divided by their number.
func benchScenario(name string, observe *ewmac.Observe) result {
	var rate eventRate
	br := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		rate = eventRate{}
		for i := 0; i < b.N; i++ {
			if err := scenarioOp(observe, &rate); err != nil {
				b.Fatal(err)
			}
		}
	})
	res := perRun(toResult(name, br), len(scenarioSeeds))
	res.EventsPerSec = rate.perSec()
	return res
}

// scenarioOp runs the scenario once per seed in scenarioSeeds, adding
// each run's engine events to rate when a report is produced.
func scenarioOp(observe *ewmac.Observe, rate *eventRate) error {
	for _, seed := range scenarioSeeds {
		cfg := ewmac.DefaultConfig(ewmac.EWMAC)
		cfg.SimTime = 60 * time.Second
		cfg.Seed = seed
		cfg.Observe = observe
		res, err := ewmac.Run(cfg)
		if err != nil {
			return err
		}
		rate.add(res.Report)
	}
	return nil
}

// eventRate totals engine events and the event-loop wall time they
// took across runs, so the rate it reports weighs every run, not just
// the last.
type eventRate struct {
	events uint64
	wallS  float64
}

// add folds in one run's report; nil (observability off) adds nothing.
func (r *eventRate) add(rep *obs.RunReport) {
	if rep == nil || rep.EngineEventsPerS <= 0 {
		return
	}
	r.events += rep.EngineEvents
	r.wallS += float64(rep.EngineEvents) / rep.EngineEventsPerS
}

// perSec returns total events over total wall time, 0 with no data.
func (r eventRate) perSec() float64 {
	if r.wallS <= 0 {
		return 0
	}
	return float64(r.events) / r.wallS
}

// perRun scales an op's figures down to one of its k runs.
func perRun(res result, k int) result {
	res.NsPerOp /= float64(k)
	res.AllocsPerOp = (res.AllocsPerOp + int64(k)/2) / int64(k)
	res.BytesPerOp = (res.BytesPerOp + int64(k)/2) / int64(k)
	return res
}

func toResult(name string, br testing.BenchmarkResult) result {
	return result{
		Name:        name,
		NsPerOp:     float64(br.NsPerOp()),
		AllocsPerOp: br.AllocsPerOp(),
		BytesPerOp:  br.AllocedBytesPerOp(),
		Iterations:  br.N,
	}
}
