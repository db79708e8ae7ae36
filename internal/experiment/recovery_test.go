package experiment

import (
	"testing"
	"time"

	"ewmac/internal/acoustic"
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
