package experiment

import (
	"math"
	"testing"
	"time"

	"ewmac/internal/fault"
	"ewmac/internal/metrics"
	"ewmac/internal/obs"
	"ewmac/internal/sim"
)

// chaosScenario enables every injector at once, aggressively enough
// that all fault paths fire inside a two-minute run.
func chaosScenario() *fault.Scenario {
	return &fault.Scenario{
		Name: "soak",
		Churn: &fault.ChurnSpec{
			MeanUp: fault.Dur(40 * time.Second), MeanDown: fault.Dur(10 * time.Second), Fraction: 0.25,
		},
		Drift: &fault.DriftSpec{
			SkewPPM: 300, MaxOffset: fault.Dur(80 * time.Millisecond),
			SyncEvery:     fault.Dur(30 * time.Second),
			LossMeanEvery: fault.Dur(30 * time.Second), LossMeanDur: fault.Dur(60 * time.Second),
			Fraction: 0.5,
		},
		DelayShift: &fault.DelayShiftSpec{
			MeanEvery: fault.Dur(30 * time.Second), MaxJumpM: 200, Fraction: 0.4,
		},
		Outage: &fault.OutageSpec{
			MeanEvery: fault.Dur(60 * time.Second), MeanDur: fault.Dur(4 * time.Second), Fraction: 0.3,
		},
		Interference: &fault.InterferenceSpec{
			MeanEvery: fault.Dur(25 * time.Second), MeanDur: fault.Dur(2 * time.Second),
			LevelDB: 60, RadiusM: 400,
		},
	}
}

// TestChaosSoak runs every protocol under the full fault cocktail on
// several seeds and asserts the stack degrades instead of breaking: no
// panics, no insane counters, and a delivery ratio that is dented but
// not annihilated.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak is minutes of simulated time per protocol")
	}
	protocols := []Protocol{ProtocolSFAMA, ProtocolROPA, ProtocolCSMAC, ProtocolEWMAC, ProtocolSALOHA}
	seeds := []int64{1, 2, 3}
	for _, p := range protocols {
		for _, seed := range seeds {
			t.Run(string(p)+"/"+string(rune('0'+seed)), func(t *testing.T) {
				t.Parallel()
				cfg := Default(p)
				cfg.SimTime = 120 * time.Second
				cfg.Seed = seed
				cfg.Faults = chaosScenario()
				var faults uint64
				cfg.Observe = &Observe{Recorder: obs.RecorderFunc(func(_ sim.Time, e obs.Event) {
					if _, ok := e.(*obs.Fault); ok {
						faults++
					}
				})}
				res, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if faults == 0 {
					t.Error("no fault events recorded under the full cocktail")
				}
				checkSane(t, res.Summary)
				// Faults hurt, but a 120s run at Table 2 load must still
				// deliver something: total collapse means a protocol
				// wedged, not that the ocean was noisy.
				if res.Summary.DeliveryRatio < 0.05 {
					t.Errorf("delivery ratio %.3f: protocol effectively dead under faults", res.Summary.DeliveryRatio)
				}
			})
		}
	}
}

// checkSane fails t when a summary's counters are impossible whatever
// the faults: an underflowed counter, more deliveries than arrivals, a
// delivery ratio outside [0, 1], negative power or latency.
func checkSane(t testing.TB, s metrics.Summary) {
	t.Helper()
	const insane = uint64(1) << 40
	m := s.MAC
	for name, v := range map[string]uint64{
		"Generated": m.Generated, "DeliveredPackets": m.DeliveredPackets,
		"DeliveredBits": m.DeliveredBits, "AckedPackets": m.AckedPackets,
		"RTSSent": m.RTSSent, "CTSSent": m.CTSSent,
		"Retransmissions": m.Retransmissions, "Dropped": m.Dropped,
		"Probes": m.Probes, "ImpossibleRx": m.ImpossibleRx,
	} {
		if v > insane {
			t.Errorf("%s = %d: counter underflow", name, v)
		}
	}
	if m.DeliveredPackets > m.Generated {
		t.Errorf("delivered %d > generated %d", m.DeliveredPackets, m.Generated)
	}
	if s.DeliveryRatio < 0 || s.DeliveryRatio > 1 || math.IsNaN(s.DeliveryRatio) {
		t.Errorf("delivery ratio %v outside [0,1]", s.DeliveryRatio)
	}
	if s.MeanPowerMW < 0 || math.IsNaN(s.MeanPowerMW) {
		t.Errorf("mean power %v", s.MeanPowerMW)
	}
	if s.ExecutionTime < 0 {
		t.Errorf("execution time %v", s.ExecutionTime)
	}
}

// TestFaultsDisabledMatchesBaseline locks the bit-identity guarantee:
// a nil Faults section must not perturb a single counter relative to
// the pre-fault code path.
func TestFaultsDisabledMatchesBaseline(t *testing.T) {
	cfg := Default(ProtocolEWMAC)
	cfg.SimTime = 60 * time.Second
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Summary != b.Summary {
		t.Error("identical configs diverged (nondeterminism)")
	}
	// An empty (inactive) scenario must behave exactly like nil.
	cfg.Faults = &fault.Scenario{Name: "empty"}
	c, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Summary != c.Summary {
		t.Error("inactive fault scenario perturbed the run")
	}
}

// TestChaosReportSummarizesFaults checks the observability contract:
// every fault class appears in the run report's per-type table.
func TestChaosReportSummarizesFaults(t *testing.T) {
	cfg := Default(ProtocolEWMAC)
	cfg.SimTime = 120 * time.Second
	cfg.Faults = chaosScenario()
	cfg.Observe = &Observe{Report: true}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report == nil {
		t.Fatal("no run report")
	}
	for _, key := range []string{"churn/inject", "churn/clear", "sync-loss/inject", "delay-shift/inject", "outage/inject", "interference/inject"} {
		if res.Report.Faults[key] == 0 {
			t.Errorf("report missing fault summary entry %q (got %v)", key, res.Report.Faults)
		}
	}
}
