package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"ewmac"
)

// toy shrinks a workload to a few nodes and seconds of simulated time,
// so every code path runs in well under a second per workload.
func toy(w workload) workload {
	shrink := func(f func(int64) []pair) func(int64) []pair {
		if f == nil {
			return nil
		}
		return func(seed int64) []pair {
			ps := f(seed)[:3]
			for i := range ps {
				c := &ps[i].cfg
				c.Nodes, c.Sinks = 8, 2
				c.OfferedLoadKbps = max(c.OfferedLoadKbps, 1)
				c.SimTime = c.Warmup + 20*time.Second
			}
			return ps
		}
	}
	w.pairs, w.shape = shrink(w.pairs), shrink(w.shape)
	if w.figs != nil {
		w.figs = w.figs[4:5] // Figure 9b: sixteen points
		opts := w.figOpts
		w.figOpts = func(seed int64) ewmac.FigureOptions {
			o := opts(seed)
			o.SimTime = 13 * time.Second
			return o
		}
	}
	return w
}

type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestEveryWorkloadPrintsItsMetrics runs every workload of BENCHMARK.json
// at toy size, untraced and traced, and checks that each prints exactly
// the file's metrics with their units, and that its result line
// round-trips through JSON.
func TestEveryWorkloadPrintsItsMetrics(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(bf.Workloads), len(workloads))
	}
	for _, bw := range bf.Workloads {
		w, ok := findWorkload(bw.Name)
		if !ok {
			t.Fatalf("workload %q of BENCHMARK.json is missing", bw.Name)
		}
		for trace, want := range [][]struct{ Name, Unit string }{bf.EndToEnd, bf.PerLayer} {
			var out bytes.Buffer
			r, err := runOne(&out, toy(w), 1, 200*time.Millisecond, trace == 1, t.TempDir())
			if err != nil {
				t.Fatalf("%s trace=%d: %v", w.name, trace, err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s trace=%d: correct=%v failed=%d attempted=%d", w.name, trace, r.Correct, r.Failed, r.Attempted)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			printed := map[string]string{}
			for _, l := range lines[:len(lines)-1] {
				if f := strings.Fields(l); len(f) == 3 {
					printed[f[0]] = f[2]
				}
			}
			for _, m := range want {
				if printed[m.Name] != m.Unit {
					t.Errorf("%s trace=%d: %s printed with unit %q, want %q", w.name, trace, m.Name, printed[m.Name], m.Unit)
				}
				if r.Metrics[m.Name].Unit != m.Unit {
					t.Errorf("%s trace=%d: result has %s in %q, want %q", w.name, trace, m.Name, r.Metrics[m.Name].Unit, m.Unit)
				}
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s trace=%d: result has %d metrics, want %d", w.name, trace, len(r.Metrics), len(want))
			}

			last := []byte(lines[len(lines)-1])
			var back result
			if err := json.Unmarshal(last, &back); err != nil {
				t.Fatalf("%s trace=%d: result line: %v", w.name, trace, err)
			}
			if !reflect.DeepEqual(back, r) {
				t.Errorf("%s trace=%d: result line decodes to %+v, want %+v", w.name, trace, back, r)
			}
			again, err := json.Marshal(back)
			if err != nil || !bytes.Equal(again, last) {
				t.Errorf("%s trace=%d: result line does not round-trip: %s vs %s (%v)", w.name, trace, again, last, err)
			}
		}
	}
}

// TestSameSeedReplaysAgree checks that the pairs a measurement repeats
// report identical fingerprints, and that the replay check notices when
// they do not.
func TestSameSeedReplaysAgree(t *testing.T) {
	w := toy(workloads[2])
	o := measurePairs(w, 1, 300*time.Millisecond, ewmac.Run)
	if o.failed != 0 || o.attempted < 3*len(w.pairs(1)) {
		t.Fatalf("attempted %d, failed %d: want every pair replayed and none failed", o.attempted, o.failed)
	}

	rp := newReplays("test")
	if err := rp.check("a/seed=2", "1"); err != nil {
		t.Fatal(err)
	}
	if err := rp.check("a/seed=2", "1"); err != nil {
		t.Fatal(err)
	}
	if err := rp.check("a/seed=2", "2"); err == nil {
		t.Fatal("a differing replay went unnoticed")
	}
}

// TestInjectedFailuresAreCounted makes one run return an error and one
// panic, and checks that both count as failed and the result as wrong.
func TestInjectedFailuresAreCounted(t *testing.T) {
	w := toy(workloads[0])
	calls := 0
	run := func(c ewmac.Config) (*ewmac.Result, error) {
		calls++
		switch calls {
		case 2:
			return nil, errors.New("injected")
		case 4:
			panic("injected")
		}
		return ewmac.Run(c)
	}
	o := measurePairs(w, 1, 300*time.Millisecond, run)
	if o.failed != 2 {
		t.Fatalf("failed = %d, want 2", o.failed)
	}
	if r := o.result(); r.Correct || r.Failed != 2 {
		t.Fatalf("result %+v: want incorrect with 2 failures", r)
	}
}
