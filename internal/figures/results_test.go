package figures

import (
	"encoding/csv"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"testing"
)

// curves is one committed figure CSV: x values and one y series per
// protocol column, keyed by display name.
type curves struct {
	x []float64
	y map[string][]float64
}

// at is protocol p's value at x.
func (c curves) at(p string, x float64) float64 {
	i := slices.Index(c.x, x)
	if i < 0 {
		panic("no x=" + strconv.FormatFloat(x, 'g', -1, 64))
	}
	return c.y[p][i]
}

func (c curves) first(p string) float64 { return c.y[p][0] }
func (c curves) last(p string) float64  { return c.y[p][len(c.y[p])-1] }

func readCurves(t *testing.T, path string) curves {
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	c := curves{y: make(map[string][]float64)}
	for _, row := range rows[1:] {
		for i, cell := range row {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			if i == 0 {
				c.x = append(c.x, v)
			} else {
				c.y[rows[0][i]] = append(c.y[rows[0][i]], v)
			}
		}
	}
	return c
}

const (
	sf = "S-FAMA"
	ro = "ROPA"
	cs = "CS-MAC"
	ew = "EW-MAC"
)

// spread is max/min − 1 over the four protocols at x.
func spread(c curves, x float64) float64 {
	ys := []float64{c.at(sf, x), c.at(ro, x), c.at(cs, x), c.at(ew, x)}
	return slices.Max(ys)/slices.Min(ys) - 1
}

// nonDecreasing reports whether ys never falls; nonIncreasing the
// reverse.
func nonDecreasing(ys []float64) bool {
	for i := 1; i < len(ys); i++ {
		if ys[i] < ys[i-1] {
			return false
		}
	}
	return true
}

func nonIncreasing(ys []float64) bool {
	for i := 1; i < len(ys); i++ {
		if ys[i] > ys[i-1] {
			return false
		}
	}
	return true
}

func mean(ys []float64) float64 {
	s := 0.0
	for _, y := range ys {
		s += y
	}
	return s / float64(len(ys))
}

// TestResultsShape checks EXPERIMENTS.md's shape verdicts against the
// committed results/*.csv, running no simulation. Each ✔ verdict is a
// predicate that must hold. Each ✘ verdict (deviation) is pinned as
// measured, so a change that moves the reproduction toward or away
// from the paper fails here and the verdict gets re-read.
func TestResultsShape(t *testing.T) {
	r := map[string]curves{}
	paths, _ := filepath.Glob("../../results/*.csv")
	for _, p := range paths {
		r[filepath.Base(p[:len(p)-len(".csv")])] = readCurves(t, p)
	}
	for _, id := range []string{"fig6", "fig7", "fig8", "fig9a", "fig9b", "fig10a", "fig10b", "fig11"} {
		if _, ok := r[id]; !ok {
			t.Fatalf("results/%s.csv missing", id)
		}
	}
	f6, f7, f8 := r["fig6"], r["fig7"], r["fig8"]
	f9a, f9b := r["fig9a"], r["fig9b"]
	f10a, f10b, f11 := r["fig10a"], r["fig10b"], r["fig11"]

	cases := []struct {
		name      string
		deviation bool
		holds     func() bool
	}{
		// Figure 6: throughput vs offered load.
		{"fig6/identical-at-low-load", false, func() bool {
			return spread(f6, 0.1) <= 0.02 && spread(f6, 0.2) <= 0.02
		}},
		{"fig6/final-ordering-ew-cs-ropa-sfama", false, func() bool {
			return f6.last(ew) > f6.last(cs) && f6.last(cs) > f6.last(ro) && f6.last(ro) > f6.last(sf)
		}},
		{"fig6/cs-mac-peaks-mid-load-then-declines", false, func() bool {
			peak := f6.x[slices.Index(f6.y[cs], slices.Max(f6.y[cs]))]
			return peak >= 0.4 && peak <= 0.6 && f6.last(cs) < 0.9*slices.Max(f6.y[cs])
		}},

		// Figure 7: throughput vs sensor density.
		{"fig7/ew-mac-on-top-declining-mildly", false, func() bool {
			for i := range f7.x {
				if f7.y[ew][i] <= max(f7.y[sf][i], f7.y[ro][i], f7.y[cs][i]) {
					return false
				}
			}
			return f7.last(ew) < f7.first(ew) && f7.last(ew) >= 0.85*f7.first(ew)
		}},
		{"fig7/ropa-declines-toward-baseline", false, func() bool {
			return nonIncreasing(f7.y[ro]) && f7.last(ro) < 0.9*f7.first(ro)
		}},
		// The paper has CS-MAC declining with density.
		{"fig7/cs-mac-rises-with-density", true, func() bool {
			return f7.last(cs) > 1.1*f7.first(cs)
		}},
		// The paper has S-FAMA flat across densities.
		{"fig7/s-fama-declines", true, func() bool {
			return f7.last(sf) < 0.8*f7.first(sf)
		}},

		// Figure 8: execution time vs offered load.
		{"fig8/identical-at-trivial-load", false, func() bool {
			return spread(f8, 0.01) <= 0.02
		}},
		{"fig8/grows-with-load-ew-fastest", false, func() bool {
			for _, p := range []string{sf, ro, cs, ew} {
				if !nonDecreasing(f8.y[p]) {
					return false
				}
			}
			slowest := max(f8.last(sf), f8.last(ro), f8.last(cs))
			return f8.last(ew) < 0.6*f8.last(cs) && f8.last(cs) < min(f8.last(sf), f8.last(ro)) &&
				slowest >= 50 && slowest <= 90
		}},

		// Figure 9: power consumption.
		{"fig9b/two-flat-two-growing", false, func() bool {
			flat := func(p string) bool { return math.Abs(f9b.last(p)/f9b.first(p)-1) < 0.045 }
			grows := func(p string) bool { return nonDecreasing(f9b.y[p]) && f9b.last(p)/f9b.first(p)-1 >= 0.045 }
			return flat(sf) && flat(ew) && grows(ro) && grows(cs)
		}},
		{"fig9a/ew-mac-at-s-fama-floor-at-light-load", false, func() bool {
			e, s := f9a.first(ew), f9a.first(sf)
			return math.Abs(e/s-1) <= 0.02 && max(e, s) < min(f9a.first(ro), f9a.first(cs))
		}},

		// Figure 10: overhead ratio to S-FAMA. EW ≤ ROPA holds on the
		// sweep's mean and at four of five densities, not at 80.
		{"fig10a/ordering-ew-ropa-cs-cs-grows-fastest", false, func() bool {
			for i := range f10a.x {
				if f10a.y[cs][i] < 2*max(f10a.y[ew][i], f10a.y[ro][i]) {
					return false
				}
			}
			rise := func(p string) float64 { return f10a.last(p) - f10a.first(p) }
			return mean(f10a.y[ew]) <= mean(f10a.y[ro]) &&
				rise(cs) > rise(ro) && rise(ro) > rise(ew)
		}},
		// The paper has ROPA near 1.5× and CS-MAC and EW-MAC at 2–3×.
		{"fig10/magnitudes-twice-the-papers", true, func() bool {
			for _, c := range []curves{f10a, f10b} {
				if slices.Min(c.y[ro]) < 3 || slices.Min(c.y[cs]) < 6 {
					return false
				}
			}
			return true
		}},
		// The paper has overhead growing with load for every protocol;
		// EW-MAC's rise matches it.
		{"fig10b/ropa-cs-fall-with-load", true, func() bool {
			return f10b.last(ro) < f10b.first(ro) && f10b.last(cs) < f10b.first(cs) &&
				f10b.last(ew) > f10b.first(ew)
		}},

		// Figure 11: efficiency index, S-FAMA = 1.
		{"fig11/ew-mac-highest-and-rising", false, func() bool {
			for i, x := range f11.x {
				if x >= 0.3 && f11.y[ew][i] <= max(f11.y[sf][i], f11.y[ro][i], f11.y[cs][i]) {
					return false
				}
			}
			return f11.last(ew) > 1.5*f11.first(ew)
		}},
		{"fig11/baselines-hover-near-1", false, func() bool {
			for i := range f11.x {
				if f11.y[sf][i] != 1 {
					return false
				}
				for _, p := range []string{ro, cs} {
					if y := f11.y[p][i]; y < 0.75 || y > 1.5 {
						return false
					}
				}
			}
			return true
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.holds() {
				return
			}
			if c.deviation {
				t.Error("known deviation (✘ in EXPERIMENTS.md) no longer measured; re-read the verdict")
			} else {
				t.Error("shape claim (✔ in EXPERIMENTS.md) no longer holds")
			}
		})
	}
}
