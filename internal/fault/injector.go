package fault

import (
	"fmt"
	"time"

	"ewmac/internal/obs"
	"ewmac/internal/packet"
	"ewmac/internal/phy"
	"ewmac/internal/sim"
	"ewmac/internal/topology"
	"ewmac/internal/vec"
)

// Restartable is the protocol-side recovery hook: a crashed node that
// comes back cold-starts through it, dropping all volatile MAC state.
// All MACs in this repo implement it: mac.Node resets the shared core,
// and mac.Base and slotted ALOHA extend it with their own state.
type Restartable interface{ Restart() }

// downReason tracks why a modem is silenced so overlapping fault
// classes (a crash during an outage, or vice versa) compose correctly:
// the modem comes back only when every reason has cleared.
type downReason uint8

const (
	downChurn downReason = 1 << iota
	downOutage
)

// member is one node under fault injection.
type member struct {
	id      packet.NodeID
	node    *topology.Node
	modem   *phy.Modem
	restart Restartable
	clock   *DriftClock
	churned bool
	shifted bool
	outaged bool
	down    downReason
}

// Injector schedules a Scenario's faults against a deployed network.
// Build it with NewInjector after topology deployment (clock
// assignment happens there, so MACs can be constructed with their
// drifting clocks), Register every node as its modem and protocol come
// up, then Start it once the protocols are running.
type Injector struct {
	eng     *sim.Engine
	sc      *Scenario
	net     *topology.Network
	rec     obs.Recorder
	members []*member
	byID    map[packet.NodeID]*member
}

// NewInjector assigns fault-class membership and clock parameters for
// every deployed node, drawing from dedicated RNG streams in node-ID
// order so the assignment is a pure function of (seed, scenario).
// Sinks are exempt from churn, drift, and delay shifts — they model
// maintained surface infrastructure with disciplined clocks — but
// share outages and interference with everyone else.
func NewInjector(eng *sim.Engine, sc *Scenario, net *topology.Network, rec obs.Recorder) *Injector {
	in := &Injector{
		eng:  eng,
		sc:   sc,
		net:  net,
		rec:  rec,
		byID: make(map[packet.NodeID]*member, net.Len()),
	}
	sel := eng.RNG("fault/select")
	for _, n := range net.Nodes() {
		m := &member{id: n.ID, node: n}
		if c := sc.Churn; c != nil && !n.Sink {
			m.churned = sel.Float64() < c.Fraction
		}
		if d := sc.Drift; d != nil && !n.Sink {
			if sel.Float64() < d.Fraction {
				offset := time.Duration((2*sel.Float64() - 1) * float64(d.MaxOffset))
				skew := (2*sel.Float64() - 1) * d.SkewPPM
				m.clock = NewDriftClock(offset, skew)
			}
		}
		if s := sc.DelayShift; s != nil && !n.Sink {
			m.shifted = sel.Float64() < s.Fraction
		}
		if o := sc.Outage; o != nil {
			m.outaged = sel.Float64() < o.Fraction
		}
		in.members = append(in.members, m)
		in.byID[n.ID] = m
	}
	return in
}

// ClockFor returns the node's drifting clock, or nil when the node
// keeps a perfect oscillator. Callers storing the result in an
// interface field (mac.Config.Clock) must check for nil first to
// avoid a typed-nil interface.
func (in *Injector) ClockFor(id packet.NodeID) *DriftClock {
	if m := in.byID[id]; m != nil {
		return m.clock
	}
	return nil
}

// Register attaches the node's modem and protocol so the injector can
// silence and cold-start it. proto may be nil (pure PHY experiments);
// a node whose protocol lacks Restart simply keeps its MAC state
// across churn, which is still a valid (battery-backed) failure model.
func (in *Injector) Register(id packet.NodeID, modem *phy.Modem, proto any) {
	m := in.byID[id]
	if m == nil {
		return
	}
	m.modem = modem
	m.restart, _ = proto.(Restartable)
}

// emit records one fault event on the observability bus.
func (in *Injector) emit(node packet.NodeID, kind, action, detail string) {
	obs.Fault{Node: node, Kind: kind, Action: action, Detail: detail}.Emit(in.rec, in.eng.Now())
}

// maxWait caps an exponential draw: a mean of centuries can draw past
// time.Duration's range. 2^62 ns (146 years) outlasts any run and
// cannot overflow when added to one of its instants.
const maxWait = 1 << 62

// expAfter draws an exponential holding time with the given mean.
func expAfter(rng *sim.RNG, mean Dur) time.Duration {
	sec := rng.ExpFloat64Rate(1 / mean.D().Seconds())
	return time.Duration(min(sec*float64(time.Second), maxWait))
}

// setDown adds reason to the member's down mask, silencing the modem
// on the first reason.
func (m *member) setDown(r downReason) {
	was := m.down != 0
	m.down |= r
	if !was && m.modem != nil {
		m.modem.SetDown(true)
	}
}

// clearDown removes reason; the modem recovers when no reason remains.
func (m *member) clearDown(r downReason) {
	m.down &^= r
	if m.down == 0 && m.modem != nil {
		m.modem.SetDown(false)
	}
}

// Start schedules every enabled fault class over [from, until). Fault
// processes are independent per class and per node, each on its own
// RNG stream. Events run at observer priority so same-instant
// PHY/MAC processing is never reordered by fault activity.
func (in *Injector) Start(from, until sim.Time) {
	if !in.sc.Active() {
		return
	}
	for _, m := range in.members {
		if m.churned {
			in.churnLoop(m, from, until)
		}
		if m.clock != nil {
			in.syncLoop(m, from, until)
			if d := in.sc.Drift; d.LossMeanEvery > 0 {
				in.syncLossLoop(m, from, until)
			}
		}
		if m.shifted {
			in.shiftLoop(m, from, until)
		}
		if m.outaged {
			in.outageLoop(m, from, until)
		}
	}
	if in.sc.Interference != nil {
		in.interferenceLoop(from, until)
	}
}

// episodes runs an alternating renewal process from instant from: an
// episode opens (open runs) after an Exp(meanUp) wait if that lands no
// later than until, closes (shut runs) after an Exp(meanDown) wait,
// and the next wait starts at the close. Each wait is drawn from rng
// when it starts, so the draws follow the process's own timeline.
func (in *Injector) episodes(from, until sim.Time, rng *sim.RNG, meanUp, meanDown Dur, open, shut func()) {
	var wait func()
	wait = func() {
		at := in.eng.Now().Add(expAfter(rng, meanUp))
		if at.After(until) {
			return
		}
		in.eng.ScheduleAt(at, sim.PriorityObserver, func() {
			open()
			in.eng.ScheduleAt(in.eng.Now().Add(expAfter(rng, meanDown)), sim.PriorityObserver, func() {
				shut()
				wait()
			})
		})
	}
	in.eng.ScheduleAt(from, sim.PriorityObserver, wait)
}

// recur runs fire after each gap, the first counted from instant from
// and each next one from the last firing, while the firing lands no
// later than until. gap is called when the wait starts.
func (in *Injector) recur(from, until sim.Time, gap func() time.Duration, fire func()) {
	var wait func()
	wait = func() {
		g := gap() // compared as a duration: now+g may overflow
		if g > until.Sub(in.eng.Now()) {
			return
		}
		in.eng.ScheduleAt(in.eng.Now().Add(g), sim.PriorityObserver, func() {
			fire()
			wait()
		})
	}
	in.eng.ScheduleAt(from, sim.PriorityObserver, wait)
}

// churnLoop alternates exponential up and down periods. A crash
// silences the modem and, on recovery, cold-starts the protocol and
// re-disciplines the clock (a rebooted node resynchronizes first).
func (in *Injector) churnLoop(m *member, from, until sim.Time) {
	spec := in.sc.Churn
	in.episodes(from, until, in.eng.Stream("fault/churn", int(m.id)), spec.MeanUp, spec.MeanDown, func() {
		m.setDown(downChurn)
		in.emit(m.id, "churn", obs.FaultInject, "crash")
	}, func() {
		m.clearDown(downChurn)
		if m.clock != nil {
			m.clock.Sync(in.eng.Now())
		}
		if m.restart != nil {
			m.restart.Restart()
		}
		in.emit(m.id, "churn", obs.FaultClear, "recovered")
	})
}

// syncLoop re-disciplines the clock every SyncEvery (ignored while a
// sync-loss episode is in progress — DriftClock.Sync is a no-op then).
// The clock starts undisciplined: its initial offset persists until
// the first sync epoch, one SyncEvery after faults begin.
func (in *Injector) syncLoop(m *member, from, until sim.Time) {
	every := in.sc.Drift.SyncEvery.D()
	in.recur(from, until, func() time.Duration { return every }, func() {
		m.clock.Sync(in.eng.Now())
	})
}

// syncLossLoop opens and closes sync-loss episodes during which the
// clock's error accumulates unchecked.
func (in *Injector) syncLossLoop(m *member, from, until sim.Time) {
	spec := in.sc.Drift
	in.episodes(from, until, in.eng.Stream("fault/drift", int(m.id)), spec.LossMeanEvery, spec.LossMeanDur, func() {
		m.clock.Desync(true)
		in.emit(m.id, "sync-loss", obs.FaultInject, "")
	}, func() {
		m.clock.Desync(false)
		err := m.clock.Err(in.eng.Now())
		in.emit(m.id, "sync-loss", obs.FaultClear, fmt.Sprintf("accumulated err %v", err))
	})
}

// shiftLoop teleports the node a bounded random displacement at
// exponential intervals, invalidating neighbors' learned delays.
func (in *Injector) shiftLoop(m *member, from, until sim.Time) {
	spec := in.sc.DelayShift
	rng := in.eng.Stream("fault/shift", int(m.id))
	in.recur(from, until, func() time.Duration { return expAfter(rng, spec.MeanEvery) }, func() {
		d := randUnit(rng).Scale(rng.Float64() * spec.MaxJumpM)
		m.node.Pos = in.net.Region.Clamp(m.node.Pos.Add(d))
		in.emit(m.id, "delay-shift", obs.FaultInject, fmt.Sprintf("jump %.1fm", d.Norm()))
	})
}

// randUnit draws a direction uniformly enough for displacement noise
// (cube sampling, normalized; the zero vector degrades to no jump).
func randUnit(rng *sim.RNG) vec.V3 {
	v := vec.V3{X: 2*rng.Float64() - 1, Y: 2*rng.Float64() - 1, Z: 2*rng.Float64() - 1}
	n := v.Norm()
	if n == 0 {
		return vec.V3{}
	}
	return v.Scale(1 / n)
}

// outageLoop silences the modem transiently; unlike churn the MAC
// keeps its state and resumes where it left off.
func (in *Injector) outageLoop(m *member, from, until sim.Time) {
	spec := in.sc.Outage
	in.episodes(from, until, in.eng.Stream("fault/outage", int(m.id)), spec.MeanEvery, spec.MeanDur, func() {
		m.setDown(downOutage)
		in.emit(m.id, "outage", obs.FaultInject, "")
	}, func() {
		m.clearDown(downOutage)
		in.emit(m.id, "outage", obs.FaultClear, "")
	})
}

// interferenceLoop strikes a random point at exponential intervals,
// raising the noise floor at every modem within radius for an
// exponential burst duration.
func (in *Injector) interferenceLoop(from, until sim.Time) {
	spec := in.sc.Interference
	rng := in.eng.RNG("fault/interference")
	in.recur(from, until, func() time.Duration { return expAfter(rng, spec.MeanEvery) }, func() {
		sz := in.net.Region.Size()
		center := in.net.Region.Min.Add(vec.V3{
			X: rng.Float64() * sz.X,
			Y: rng.Float64() * sz.Y,
			Z: rng.Float64() * sz.Z,
		})
		dur := expAfter(rng, spec.MeanDur)
		hit := 0
		for _, m := range in.members {
			if m.modem == nil {
				continue
			}
			if spec.RadiusM > 0 && m.node.Pos.Dist(center) > spec.RadiusM {
				continue
			}
			m.modem.InjectInterference(spec.LevelDB, dur)
			hit++
		}
		in.emit(packet.Nobody, "interference", obs.FaultInject,
			fmt.Sprintf("burst %v at %v hit %d nodes", dur.Round(time.Millisecond), center, hit))
	})
}
