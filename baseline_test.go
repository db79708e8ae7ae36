package ewmac_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"
)

// TestBenchBaselineIsNewest fails when README's "current baseline" or a
// `-compare` baseline in README or CI's workflow names a file other than
// the newest committed BENCH_<n>.json, so the docs and the bench-smoke
// gate move with each new baseline.
func TestBenchBaselineIsNewest(t *testing.T) {
	files, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	newest, newestN := "", -1
	for _, f := range files {
		n, err := strconv.Atoi(f[len("BENCH_") : len(f)-len(".json")])
		if err != nil {
			t.Fatalf("%s: not BENCH_<n>.json", f)
		}
		if n > newestN {
			newest, newestN = f, n
		}
	}
	if newest == "" {
		t.Fatal("no BENCH_<n>.json in the repository root")
	}
	read := func(path string) string {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	current := regexp.MustCompile("`(BENCH_[0-9]+\\.json)` is the current baseline")
	compare := regexp.MustCompile(`-compare (BENCH_[0-9]+\.json)`)

	readme := read("README.md")
	if m := current.FindAllStringSubmatch(readme, -1); len(m) != 1 || m[0][1] != newest {
		t.Errorf("README.md: current baseline %v, want one naming %s", m, newest)
	}
	for _, path := range []string{"README.md", filepath.Join(".github", "workflows", "ci.yml")} {
		ms := compare.FindAllStringSubmatch(read(path), -1)
		if len(ms) == 0 {
			t.Errorf("%s: no -compare baseline", path)
		}
		for _, m := range ms {
			if m[1] != newest {
				t.Errorf("%s: -compare %s, want the newest baseline %s", path, m[1], newest)
			}
		}
	}
}
