// Package resilience folds the fault timeline and the observability
// event stream into per-run recovery metrics: how many fault episodes
// the network absorbed, how long each afflicted node took to make
// protocol progress again after its fault cleared, how delivery held
// up inside degraded windows, and whether any traffic was left
// stranded behind a dead peer.
//
// The Tracker is an obs.Recorder: the experiment layer splices it into
// the per-run recorder fan-out whenever fault injection is active, so
// it sees the same deterministic event stream as every other consumer.
// The reduced obs.ResilienceStats is attached to experiment.Result,
// the RunReport, and the Prometheus snapshot.
package resilience

import (
	"time"

	"ewmac/internal/obs"
	"ewmac/internal/packet"
	"ewmac/internal/sim"
)

// pairedKinds are the fault classes whose injectors emit a matching
// clear for every inject, forming an episode with a recovery to
// measure. Delay shifts and interference bursts are inject-only (the
// "fault" is a permanent world change or an instantaneous burst), so
// they contribute no episodes and no degraded windows.
func paired(kind string) bool {
	switch kind {
	case "churn", "outage", "sync-loss":
		return true
	}
	return false
}

type episodeKey struct {
	node packet.NodeID
	kind string
}

// pending is one cleared fault episode whose node has not yet made
// protocol progress.
type pending struct {
	node    packet.NodeID
	kind    string
	clearAt sim.Time
}

// Tracker reduces the event stream to recovery metrics. All methods
// run on the simulation goroutine; Summary is called once after the
// run drains.
type Tracker struct {
	active        map[episodeKey]sim.Time
	awaiting      []pending
	ttrs          []time.Duration
	episodes      int
	activeCount   int
	degradedStart sim.Time
	degraded      time.Duration

	degradedDeliv uint64
	cleanDeliv    uint64

	// Overload episodes: merged windows during which at least one node's
	// admission gate is shedding.
	shedNodes        map[packet.NodeID]bool
	shedActive       int
	overloadStart    sim.Time
	overload         time.Duration
	overloadEpisodes int
}

// NewTracker returns an empty tracker.
func NewTracker() *Tracker {
	return &Tracker{
		active:    make(map[episodeKey]sim.Time),
		shedNodes: make(map[packet.NodeID]bool),
	}
}

var _ obs.Recorder = (*Tracker)(nil)

// Record implements obs.Recorder.
func (t *Tracker) Record(at sim.Time, e obs.Event) {
	switch ev := e.(type) {
	case *obs.Fault:
		if !paired(ev.Kind) {
			return
		}
		key := episodeKey{ev.Node, ev.Kind}
		switch ev.Action {
		case obs.FaultInject:
			if _, dup := t.active[key]; dup {
				return
			}
			t.active[key] = at
			if t.activeCount == 0 {
				t.degradedStart = at
			}
			t.activeCount++
		case obs.FaultClear:
			if _, ok := t.active[key]; !ok {
				return
			}
			delete(t.active, key)
			t.episodes++
			t.awaiting = append(t.awaiting, pending{node: ev.Node, kind: ev.Kind, clearAt: at})
			t.activeCount--
			if t.activeCount == 0 {
				t.degraded += at.Sub(t.degradedStart)
			}
		}
	case *obs.Delivery:
		if t.activeCount > 0 {
			t.degradedDeliv++
		} else {
			t.cleanDeliv++
		}
		t.progress(ev.Node, at)
	case *obs.Contention:
		// A won round (sender) or an issued grant (receiver) is the
		// node demonstrably negotiating again — the recovery signal for
		// nodes that are relays rather than destinations.
		if ev.Outcome == obs.ContentionWon || ev.Outcome == obs.ContentionGrant {
			t.progress(ev.Node, at)
		}
	case *obs.Overload:
		switch ev.Action {
		case obs.OverloadShedBegin:
			if t.shedNodes[ev.Node] {
				return
			}
			t.shedNodes[ev.Node] = true
			if t.shedActive == 0 {
				t.overloadStart = at
				t.overloadEpisodes++
			}
			t.shedActive++
		case obs.OverloadShedEnd:
			if !t.shedNodes[ev.Node] {
				return
			}
			delete(t.shedNodes, ev.Node)
			t.shedActive--
			if t.shedActive == 0 {
				t.overload += at.Sub(t.overloadStart)
			}
		}
	}
}

// progress closes every pending episode of node that cleared at or
// before this instant, recording its time-to-recover.
func (t *Tracker) progress(node packet.NodeID, at sim.Time) {
	if len(t.awaiting) == 0 {
		return
	}
	kept := t.awaiting[:0]
	for _, p := range t.awaiting {
		if p.node == node && !at.Before(p.clearAt) {
			t.ttrs = append(t.ttrs, at.Sub(p.clearAt))
			continue
		}
		kept = append(kept, p)
	}
	t.awaiting = kept
}

// Summary reduces the tracked state to ResilienceStats. end is the
// run's final instant; stranded is the count of packets still queued
// to dead peers across all nodes at that instant. The recovery, shed,
// deferral and oracle tallies are left for the caller to fill from
// their owners, the MAC counters and the oracle.
func (t *Tracker) Summary(end sim.Time, stranded int) *obs.ResilienceStats {
	degraded := t.degraded
	if t.activeCount > 0 && end.After(t.degradedStart) {
		degraded += end.Sub(t.degradedStart)
	}
	clean := end.Duration() - degraded
	if clean < 0 {
		clean = 0
	}
	overload := t.overload
	if t.shedActive > 0 && end.After(t.overloadStart) {
		overload += end.Sub(t.overloadStart)
	}
	st := &obs.ResilienceStats{
		Episodes:           t.episodes,
		Recovered:          len(t.ttrs),
		Unrecovered:        len(t.awaiting),
		DegradedS:          degraded.Seconds(),
		CleanS:             clean.Seconds(),
		DegradedDeliveries: t.degradedDeliv,
		CleanDeliveries:    t.cleanDeliv,
		StrandedPackets:    stranded,
		OverloadEpisodes:   t.overloadEpisodes,
		OverloadS:          overload.Seconds(),
	}
	if len(t.ttrs) > 0 {
		var sum, max time.Duration
		for _, d := range t.ttrs {
			sum += d
			if d > max {
				max = d
			}
		}
		st.MeanTimeToRecoverS = (sum / time.Duration(len(t.ttrs))).Seconds()
		st.MaxTimeToRecoverS = max.Seconds()
	}
	// Degraded delivery ratio: the delivery *rate* inside degraded
	// windows normalized by the clean-window rate. 1 means faults cost
	// nothing; 0 means total collapse. With no degraded time (or no
	// clean baseline to compare against) the ratio is reported as 1.
	switch {
	case st.DegradedS <= 0 || st.CleanS <= 0:
		st.DegradedDeliveryRatio = 1
	default:
		cleanRate := float64(t.cleanDeliv) / st.CleanS
		degRate := float64(t.degradedDeliv) / st.DegradedS
		if cleanRate <= 0 {
			st.DegradedDeliveryRatio = 1
		} else {
			r := degRate / cleanRate
			if r > 1 {
				r = 1
			}
			st.DegradedDeliveryRatio = r
		}
	}
	return st
}
