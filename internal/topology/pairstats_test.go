package topology

import (
	"testing"
	"time"

	"ewmac/internal/acoustic"
	"ewmac/internal/sim"
	"ewmac/internal/vec"
)

// TestPairStatsMatchesOrderedPairs holds the one-pass PairStats to the
// two loops it replaced, bit for bit: the mean degree over every
// ordered pair's InRange, and the largest Model.Delay over in-range
// pairs. Regions of 1, 3 and 6 km put all, most or few pairs in range.
func TestPairStatsMatchesOrderedPairs(t *testing.T) {
	model := acoustic.DefaultModel()
	for seed := int64(1); seed <= 3; seed++ {
		for _, side := range []float64{1000, 3000, 6000} {
			cfg := testConfig()
			cfg.Nodes, cfg.Region = 120, vec.Cube(side)
			net, err := Deploy(cfg, model, sim.NewEngine(seed).RNG("deploy"))
			if err != nil {
				t.Fatal(err)
			}
			total := 0
			var wantDelay time.Duration
			for _, a := range net.Nodes() {
				for _, b := range net.Nodes() {
					if b.ID == a.ID || !model.InRange(a.Pos, b.Pos) {
						continue
					}
					total++
					wantDelay = max(wantDelay, model.Delay(a.Pos, b.Pos))
				}
			}
			wantDegree := float64(total) / float64(net.Len())
			deg, maxD := net.PairStats()
			if deg != wantDegree || maxD != wantDelay {
				t.Errorf("seed %d, %g m: PairStats = %v, %v; ordered pairs give %v, %v", seed, side, deg, maxD, wantDegree, wantDelay)
			}
		}
	}
	if deg, maxD := (&Network{Model: model}).PairStats(); deg != 0 || maxD != 0 {
		t.Errorf("empty network: PairStats = %v, %v, want 0, 0", deg, maxD)
	}
}
