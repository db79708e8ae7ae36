package experiment

import (
	"testing"
	"time"

	"ewmac/internal/acoustic"
	"ewmac/internal/mac"
	"ewmac/internal/obs"
	"ewmac/internal/sim"
)

// TestChaosRecoveryMetrics is the PR's acceptance check: under the
// full fault cocktail EW-MAC reports per-episode recovery metrics —
// episodes counted, time-to-recover measured, degraded windows timed —
// and strands no traffic behind dead peers.
func TestChaosRecoveryMetrics(t *testing.T) {
	cfg := Default(ProtocolEWMAC)
	cfg.SimTime = 120 * time.Second
	cfg.Faults = chaosScenario()
	cfg.Observe = &Observe{Report: true}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := res.Resilience
	if r == nil {
		t.Fatal("no resilience stats on a fault-injected run")
	}
	if r.Episodes == 0 {
		t.Error("chaos cocktail produced no recoverable fault episodes")
	}
	if r.Recovered == 0 {
		t.Error("no episode ever recovered")
	}
	if r.Recovered > 0 && r.MeanTimeToRecoverS <= 0 {
		t.Errorf("recovered %d episodes but mean TTR %v", r.Recovered, r.MeanTimeToRecoverS)
	}
	if r.MaxTimeToRecoverS < r.MeanTimeToRecoverS {
		t.Errorf("max TTR %v below mean %v", r.MaxTimeToRecoverS, r.MeanTimeToRecoverS)
	}
	if r.DegradedS <= 0 {
		t.Error("no degraded window under continuous churn and outages")
	}
	if r.DegradedDeliveryRatio < 0 || r.DegradedDeliveryRatio > 1 {
		t.Errorf("degraded delivery ratio %v outside [0,1]", r.DegradedDeliveryRatio)
	}
	if r.StrandedPackets != 0 {
		t.Errorf("%d packets stranded behind dead peers: the purge/drop paths leak", r.StrandedPackets)
	}
	if res.Report == nil || res.Report.Resilience == nil {
		t.Fatal("resilience stats missing from the run report")
	}
	if *res.Report.Resilience != *r {
		t.Error("report resilience stats diverge from the result's")
	}
	t.Logf("episodes=%d recovered=%d meanTTR=%.1fs maxTTR=%.1fs degraded=%.1fs ratio=%.2f suspects=%d deads=%d watchdogs=%d",
		r.Episodes, r.Recovered, r.MeanTimeToRecoverS, r.MaxTimeToRecoverS,
		r.DegradedS, r.DegradedDeliveryRatio, r.SuspectMarks, r.DeadMarks, r.WatchdogResets)
}

// TestFaultFreeRunHasNoResilience: the tracker (and the recovery
// layer) only arm under fault injection.
func TestFaultFreeRunHasNoResilience(t *testing.T) {
	cfg := Default(ProtocolEWMAC)
	cfg.SimTime = 30 * time.Second
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resilience != nil {
		t.Error("fault-free run reported resilience stats")
	}
}

// TestRetryForeverNeverDrops: MaxRetries=0 means keep trying — on a
// totally dead channel every protocol must retry indefinitely without
// ever dropping a packet.
func TestRetryForeverNeverDrops(t *testing.T) {
	for _, p := range allProtocols {
		p := p
		t.Run(string(p), func(t *testing.T) {
			t.Parallel()
			cfg := Default(p)
			cfg.SimTime = 60 * time.Second
			cfg.OfferedLoadKbps = 0.3
			cfg.MaxRetries = 0
			cfg.PER = acoustic.UniformLossPER{LossProb: 1}
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			m := res.Summary.MAC
			if m.Generated == 0 {
				t.Fatal("no traffic generated")
			}
			if m.Dropped != 0 || m.DroppedRetry != 0 || m.DroppedDeadPeer != 0 {
				t.Errorf("MaxRetries=0 dropped packets: total=%d retry=%d dead-peer=%d",
					m.Dropped, m.DroppedRetry, m.DroppedDeadPeer)
			}
		})
	}
}

// TestRetryExhaustionDrops: with a small retry budget on a dead
// channel every protocol must exhaust retries and account each drop
// under the retry-exhausted reason — and under none other, since the
// liveness layer is not armed on fault-free runs.
func TestRetryExhaustionDrops(t *testing.T) {
	for _, p := range allProtocols {
		p := p
		t.Run(string(p), func(t *testing.T) {
			t.Parallel()
			cfg := Default(p)
			cfg.SimTime = 60 * time.Second
			cfg.OfferedLoadKbps = 0.3
			cfg.MaxRetries = 2
			cfg.PER = acoustic.UniformLossPER{LossProb: 1}
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			m := res.Summary.MAC
			if m.DroppedRetry == 0 {
				t.Fatal("dead channel with MaxRetries=2 never exhausted a retry budget")
			}
			if m.Dropped != m.DroppedRetry {
				t.Errorf("total dropped %d != retry-exhausted %d: unexplained drops", m.Dropped, m.DroppedRetry)
			}
			if m.DroppedDeadPeer != 0 {
				t.Errorf("dead-peer drops %d without the recovery layer armed", m.DroppedDeadPeer)
			}
			if m.Dropped > m.Generated {
				t.Errorf("dropped %d > generated %d", m.Dropped, m.Generated)
			}
		})
	}
}

// TestRecoveryDeadPeerPurge: on a dead channel a hardened (faulted)
// run makes every peer suspect, then dead, and purges the pending
// traffic rather than retrying it forever.
func TestRecoveryDeadPeerPurge(t *testing.T) {
	cfg := Default(ProtocolEWMAC)
	cfg.SimTime = 60 * time.Second
	cfg.OfferedLoadKbps = 0.3
	cfg.PER = acoustic.UniformLossPER{LossProb: 1}
	cfg.Faults = chaosScenario()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Summary.MAC
	if m.SuspectMarks == 0 || m.DeadMarks == 0 {
		t.Errorf("dead channel with liveness armed marked no peers: suspects=%d deads=%d",
			m.SuspectMarks, m.DeadMarks)
	}
	if m.DroppedDeadPeer == 0 {
		t.Error("dead peers never shed their pending traffic")
	}
}

// resilienceTally counts, straight from the event stream, the
// ResilienceStats tallies whose owners are the MAC counters and the
// oracle.
type resilienceTally struct {
	suspects, deads, resurrections, watchdogs uint64
	deferrals, sheds, violations              uint64
}

func (c *resilienceTally) Record(_ sim.Time, e obs.Event) {
	switch ev := e.(type) {
	case *obs.Recovery:
		switch ev.Action {
		case obs.RecoverySuspect:
			c.suspects++
		case obs.RecoveryDead:
			c.deads++
		case obs.RecoveryResurrect:
			c.resurrections++
		case obs.RecoveryWatchdog:
			c.watchdogs++
		}
	case *obs.Overload:
		if ev.Action == obs.OverloadRetryDefer {
			c.deferrals++
		}
	case *obs.PacketDrop:
		if ev.Reason == obs.DropShed {
			c.sheds++
		}
	case *obs.OracleViolation:
		c.violations++
	}
}

// TestResilienceCountsMatchEvents: every tally in the resilience
// summary equals the count of its events in the run's stream, on the
// golden fault config of every MAC and on an overload-only run.
func TestResilienceCountsMatchEvents(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	overload := Default(ProtocolEWMAC)
	overload.Nodes = 12
	overload.Sinks = 2
	overload.OfferedLoadKbps = 2
	overload.SimTime = 120 * time.Second
	overload.QueueMax = 4
	overload.Overload = mac.OverloadConfig{
		HighWater:   0.75,
		RetryBudget: mac.RetryBudgetConfig{Burst: 1, RatePerSec: 0.02},
	}
	cfgs := map[string]Config{"overload": overload}
	for _, p := range allProtocols {
		cfgs["fault/"+string(p)] = goldenFaultConfig(t, p)
	}
	var total resilienceTally
	for name, cfg := range cfgs {
		var c resilienceTally
		cfg.Observe = &Observe{Recorder: &c, Verify: true}
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		r := res.Resilience
		if r == nil {
			t.Fatalf("%s: no resilience stats", name)
		}
		got := resilienceTally{
			r.SuspectMarks, r.DeadMarks, r.Resurrections, r.WatchdogResets,
			r.RetryDeferrals, r.ShedPackets, r.OracleViolations,
		}
		if got != c {
			t.Errorf("%s: resilience tallies %+v, events %+v", name, got, c)
		}
		total.suspects += c.suspects
		total.deads += c.deads
		total.resurrections += c.resurrections
		total.watchdogs += c.watchdogs
		total.deferrals += c.deferrals
		total.sheds += c.sheds
		total.violations += c.violations
	}
	// Each tally must be exercised somewhere, or equality proves little.
	// Oracle violations are exempt: a conforming run has none.
	if total.suspects == 0 || total.deads == 0 || total.resurrections == 0 ||
		total.watchdogs == 0 || total.deferrals == 0 || total.sheds == 0 {
		t.Errorf("some tally never fired: %+v", total)
	}
	t.Logf("event totals %+v", total)
}
