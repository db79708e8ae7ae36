package resilience

import (
	"math"
	"testing"
	"time"

	"ewmac/internal/obs"
	"ewmac/internal/sim"
)

func at(d time.Duration) sim.Time { return sim.At(d) }

// TestTrackerEpisodes walks a synthetic fault timeline through the
// tracker: one churn episode on node 3, recovered by a delivery 5s
// after the clear, with deliveries on both sides of the degraded
// window.
func TestTrackerEpisodes(t *testing.T) {
	tr := NewTracker()

	tr.Record(at(5*time.Second), &obs.Delivery{Node: 3}) // clean
	tr.Record(at(10*time.Second), &obs.Fault{Node: 3, Kind: "churn", Action: obs.FaultInject})
	tr.Record(at(15*time.Second), &obs.Delivery{Node: 2}) // degraded
	tr.Record(at(20*time.Second), &obs.Fault{Node: 3, Kind: "churn", Action: obs.FaultClear})
	tr.Record(at(25*time.Second), &obs.Delivery{Node: 3}) // recovery signal
	tr.Record(at(30*time.Second), &obs.Delivery{Node: 3}) // clean

	st := tr.Summary(at(60*time.Second), 2)
	if st.Episodes != 1 || st.Recovered != 1 || st.Unrecovered != 0 {
		t.Fatalf("episodes=%d recovered=%d unrecovered=%d, want 1/1/0",
			st.Episodes, st.Recovered, st.Unrecovered)
	}
	if st.MeanTimeToRecoverS != 5 || st.MaxTimeToRecoverS != 5 {
		t.Fatalf("ttr mean=%v max=%v, want 5/5", st.MeanTimeToRecoverS, st.MaxTimeToRecoverS)
	}
	if st.DegradedS != 10 || st.CleanS != 50 {
		t.Fatalf("degraded=%v clean=%v, want 10/50", st.DegradedS, st.CleanS)
	}
	if st.DegradedDeliveries != 1 || st.CleanDeliveries != 3 {
		t.Fatalf("deliveries degraded=%d clean=%d, want 1/3", st.DegradedDeliveries, st.CleanDeliveries)
	}
	// Degraded rate 1/10 vs clean rate 3/50: ratio 5/3 clamps to 1.
	if st.DegradedDeliveryRatio != 1 {
		t.Fatalf("degraded delivery ratio %v, want 1 (clamped)", st.DegradedDeliveryRatio)
	}
	if st.StrandedPackets != 2 {
		t.Fatalf("stranded=%d, want 2", st.StrandedPackets)
	}
}

// TestTrackerContentionProgress verifies that a won contention round
// counts as recovery for a relay node that never receives deliveries,
// and that a node with no progress stays unrecovered.
func TestTrackerContentionProgress(t *testing.T) {
	tr := NewTracker()
	tr.Record(at(10*time.Second), &obs.Fault{Node: 1, Kind: "outage", Action: obs.FaultInject})
	tr.Record(at(12*time.Second), &obs.Fault{Node: 2, Kind: "outage", Action: obs.FaultInject})
	tr.Record(at(20*time.Second), &obs.Fault{Node: 1, Kind: "outage", Action: obs.FaultClear})
	tr.Record(at(22*time.Second), &obs.Fault{Node: 2, Kind: "outage", Action: obs.FaultClear})
	// Node 1 wins a round 3s after its clear; node 2 only loses rounds.
	tr.Record(at(23*time.Second), &obs.Contention{Node: 1, Outcome: obs.ContentionWon})
	tr.Record(at(24*time.Second), &obs.Contention{Node: 2, Outcome: "lost"})

	st := tr.Summary(at(30*time.Second), 0)
	if st.Episodes != 2 || st.Recovered != 1 || st.Unrecovered != 1 {
		t.Fatalf("episodes=%d recovered=%d unrecovered=%d, want 2/1/1",
			st.Episodes, st.Recovered, st.Unrecovered)
	}
	if st.MeanTimeToRecoverS != 3 {
		t.Fatalf("mean ttr %v, want 3", st.MeanTimeToRecoverS)
	}
}

// TestTrackerOverlappingWindows: two overlapping episodes form one
// degraded window spanning first inject to last clear.
func TestTrackerOverlappingWindows(t *testing.T) {
	tr := NewTracker()
	tr.Record(at(10*time.Second), &obs.Fault{Node: 1, Kind: "churn", Action: obs.FaultInject})
	tr.Record(at(15*time.Second), &obs.Fault{Node: 2, Kind: "outage", Action: obs.FaultInject})
	tr.Record(at(20*time.Second), &obs.Fault{Node: 1, Kind: "churn", Action: obs.FaultClear})
	tr.Record(at(30*time.Second), &obs.Fault{Node: 2, Kind: "outage", Action: obs.FaultClear})
	st := tr.Summary(at(60*time.Second), 0)
	if st.DegradedS != 20 {
		t.Fatalf("degraded=%v, want 20 (one merged window)", st.DegradedS)
	}
	if st.Episodes != 2 {
		t.Fatalf("episodes=%d, want 2", st.Episodes)
	}
}

// TestTrackerUnpairedKindsIgnored: delay-shift and interference are
// inject-only world changes; they must not open degraded windows or
// leak unrecovered episodes.
func TestTrackerUnpairedKindsIgnored(t *testing.T) {
	tr := NewTracker()
	tr.Record(at(10*time.Second), &obs.Fault{Node: 1, Kind: "delay-shift", Action: obs.FaultInject})
	tr.Record(at(12*time.Second), &obs.Fault{Node: 2, Kind: "interference", Action: obs.FaultInject})
	st := tr.Summary(at(60*time.Second), 0)
	if st.Episodes != 0 || st.Unrecovered != 0 || st.DegradedS != 0 {
		t.Fatalf("unpaired kinds leaked: %+v", st)
	}
}

// TestTrackerOpenWindowExtendsToEnd: a fault still active at run end
// degrades the remainder of the run and counts no episode.
func TestTrackerOpenWindowExtendsToEnd(t *testing.T) {
	tr := NewTracker()
	tr.Record(at(40*time.Second), &obs.Fault{Node: 1, Kind: "outage", Action: obs.FaultInject})
	st := tr.Summary(at(60*time.Second), 0)
	if st.DegradedS != 20 || st.CleanS != 40 {
		t.Fatalf("degraded=%v clean=%v, want 20/40", st.DegradedS, st.CleanS)
	}
	if st.Episodes != 0 {
		t.Fatalf("episodes=%d, want 0 (never cleared)", st.Episodes)
	}
}

// TestTrackerDegradedRatio: an unclamped ratio comes out as the
// degraded delivery rate over the clean rate.
func TestTrackerDegradedRatio(t *testing.T) {
	tr := NewTracker()
	// Clean: 0..30s with 6 deliveries (rate 0.2/s).
	for i := 0; i < 6; i++ {
		tr.Record(at(time.Duration(i+1)*time.Second), &obs.Delivery{Node: 1})
	}
	tr.Record(at(30*time.Second), &obs.Fault{Node: 1, Kind: "outage", Action: obs.FaultInject})
	// Degraded: 30..60s with 3 deliveries (rate 0.1/s).
	for i := 0; i < 3; i++ {
		tr.Record(at(time.Duration(35+i)*time.Second), &obs.Delivery{Node: 2})
	}
	st := tr.Summary(at(60*time.Second), 0)
	if math.Abs(st.DegradedDeliveryRatio-0.5) > 1e-9 {
		t.Fatalf("degraded delivery ratio %v, want 0.5", st.DegradedDeliveryRatio)
	}
}
