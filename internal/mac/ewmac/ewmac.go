// Package ewmac implements EW-MAC, the paper's contribution: a slotted
// four-way-handshake MAC that exploits the waiting resources other
// protocols leave idle.
//
// Mechanism (paper §4): a node i that loses RTS contention for its
// target j — because j answered a higher-priority contender k, or
// because j itself contended toward k — knows, from the overheard
// negotiation frame and its one-hop propagation-delay table, exactly
// when j is idle for the rest of the exchange. It requests an extra
// communication by sending EXR inside j's idle window (periods I/III/V
// of Figure 2); j answers EXC with a grant time derived from its own
// schedule (Equations (5)/(6)); i then transmits EXData so it begins
// arriving at j exactly when j has finished its negotiated exchange,
// and j confirms with EXAck. Before every extra transmission, i checks
// that the frame's arrival at every neighbor it knows to be involved
// in a negotiation misses that neighbor's predicted receive windows —
// extra communication must never interfere with negotiated
// communication.
package ewmac

import (
	"time"

	"ewmac/internal/mac"
	"ewmac/internal/obs"
	"ewmac/internal/packet"
	"ewmac/internal/sim"
)

// Options tune EW-MAC; the zero value is the paper's protocol.
type Options struct {
	// DisableNeighborGuard turns off the neighbor-interference
	// admission check (ablation: degrades EW-MAC toward CS-MAC's
	// collision-prone stealing).
	DisableNeighborGuard bool
	// UniformPriority disables the wait-time boost in rp (ablation for
	// the fairness design choice). The boost itself lives in the base;
	// this zeroes the candidate ordering advantage instead of the
	// generation.
	UniformPriority bool
}

// staleAfter is how long a hardened node (mac.Config.Hardened) trusts a
// delay-table entry for extra-communication admission: attempts and
// grants against an older entry are denied (reason "stale-delay") and a
// unicast probe is sent to refresh it, while entries merely aging
// toward the limit inflate the scheduling margin mac.Guard up to 2×.
// An unhardened node trusts the table as long as it holds an entry, the
// paper's behaviour.
const staleAfter = 30 * time.Second

type extraPhase uint8

const (
	phaseRequested extraPhase = iota + 1
	phaseGranted
	phaseDataSent
)

// extraAttempt is the sender-side state of one extra communication.
type extraAttempt struct {
	target packet.NodeID
	pkt    mac.AppPacket
	phase  extraPhase
	// xid is the exchange lineage shared by every frame of this extra
	// exchange; parent is the primary handshake it exploits.
	xid    uint64
	parent uint64
}

// grantedExtra is the receiver-side record of an extra grant.
type grantedExtra struct {
	from packet.NodeID
	bits int
	at   sim.Time
}

// MAC is the EW-MAC protocol.
type MAC struct {
	*mac.Base
	opts    Options
	extra   *extraAttempt
	granted *grantedExtra
}

var _ mac.Protocol = (*MAC)(nil)

// New builds an EW-MAC node.
func New(cfg mac.Config, opts Options) (*MAC, error) {
	// EW-MAC receivers arbitrate concurrent RTS attempts by priority
	// rather than deferring on every overheard RTS (paper §3.1).
	cfg.LenientGrant = true
	// Control frames carry one piggybacked pair entry.
	cfg.Slots.Pad = packet.Duration(packet.NeighborInfoBits, cfg.BitRate)
	base, err := mac.NewBase(cfg)
	if err != nil {
		return nil, err
	}
	m := &MAC{Base: base, opts: opts}
	base.SetHooks(m)
	return m, nil
}

// PickWinner implements mac.Hooks: highest random priority wins
// (paper §3.1). Ties break toward the earlier arrival.
func (m *MAC) PickWinner(cands []*packet.Frame) *packet.Frame {
	if len(cands) == 0 || m.opts.UniformPriority {
		return m.Base.PickWinner(cands)
	}
	best := cands[0]
	for _, c := range cands[1:] {
		if c.RP > best.RP {
			best = c
		}
	}
	return best
}

// Piggyback implements mac.Hooks: EW-MAC appends exactly one neighbor
// entry — the delay to the frame's counterpart — never two-hop state
// (paper §4.3; this is why its overhead stays flat in Figure 10b).
func (m *MAC) Piggyback(f *packet.Frame) {
	if f.Dst == packet.Broadcast || f.PairDelay <= 0 {
		return
	}
	f.Neighbors = append(f.Neighbors, packet.NeighborInfo{ID: f.Dst, Delay: f.PairDelay})
}

// staleEntry reports whether peer's delay estimate is too old to base
// extra-communication timing on. Extra exchanges are scheduled to
// land inside windows a few guard-margins wide; a table entry that has
// not been refreshed for staleAfter (mobility may have moved the peer
// hundreds of meters since) makes those windows fiction.
func (m *MAC) staleEntry(peer packet.NodeID, now sim.Time) bool {
	if !m.Hardened() {
		return false
	}
	if m.Table().Suspect(peer) {
		// The peer produced a physically impossible measurement since
		// the last good refresh — its stored delay is poisoned
		// regardless of age.
		return true
	}
	age, ok := m.Table().Age(peer, now)
	return ok && age > staleAfter
}

// guardFor returns the scheduling margin to use against peer:
// mac.Guard, inflated linearly up to 2× as the peer's delay estimate
// ages toward staleAfter. Fresh entries (or an unhardened node) keep
// the exact base margin.
func (m *MAC) guardFor(peer packet.NodeID, now sim.Time) time.Duration {
	g := mac.Guard
	if !m.Hardened() {
		return g
	}
	if m.Table().Suspect(peer) {
		return 2 * g
	}
	age, ok := m.Table().Age(peer, now)
	if !ok || age <= 0 {
		return g
	}
	scale := float64(age) / float64(staleAfter)
	if scale > 1 {
		scale = 1
	}
	return g + time.Duration(float64(g)*scale)
}

// OnContentionLost implements mac.Hooks: this is the entry to the
// "Asking Extra Commu" state of Figure 3. cause is the overheard frame
// that told us j is busy: a CTS from j to the winner (j is the
// receiver of the other exchange) or an RTS from j to its own target
// (j is the sender).
func (m *MAC) OnContentionLost(cause *packet.Frame) {
	if m.extra != nil || m.granted != nil {
		m.RecordExtra(cause.Src, obs.ExtraDeny, "exchange-in-flight", 0, 0)
		return
	}
	pkt, ok := m.Queue().Peek()
	if !ok || pkt.Dst != cause.Src {
		return
	}
	now := m.Engine().Now()
	tau, known := m.Table().Delay(cause.Src)
	if !known {
		m.RecordExtra(cause.Src, obs.ExtraDeny, "unknown-delay", 0, 0)
		return
	}
	if m.staleEntry(cause.Src, now) {
		// Table confidence too low to aim inside j's idle window:
		// deny conservatively and probe to refresh the entry.
		m.RecordExtra(cause.Src, obs.ExtraDeny, "stale-delay", 0, 0)
		m.Probe(cause.Src)
		return
	}
	guard := m.guardFor(cause.Src, now)

	// j's idle window for the EXR, per Figure 2: after j finished
	// transmitting `cause`, before the next frame of j's exchange
	// reaches it (CTS if j is a sender, Data if j is a receiver —
	// either way, one slot after `cause`, delayed by the pair delay).
	slots := m.Slots()
	causeSlot := slots.SlotAt(sim.At(cause.Timestamp))
	winStart := slots.StartOf(causeSlot).Add(m.FrameTx(cause) + guard)
	winEnd := slots.StartOf(causeSlot + 1).Add(cause.PairDelay - guard)

	exr := m.NewFrame(packet.KindEXR, cause.Src)
	exr.DataBits = pkt.Bits
	exr.XID = m.NewXID()
	m.Piggyback(exr) // sized before scheduling so duration is exact
	exrDur := m.FrameTx(exr)

	sendT := now.Add(guard)
	if earliest := winStart.Add(-tau); sendT.Before(earliest) {
		sendT = earliest
	}
	arrivalStart := sendT.Add(tau)
	arrivalEnd := arrivalStart.Add(exrDur)
	if arrivalEnd.After(winEnd) {
		// Window too small — give up (paper: back to Quiet).
		m.RecordExtra(cause.Src, obs.ExtraDeny, "window-too-small", 0, 0)
		return
	}
	if !m.clearAtNeighbors(sendT, exrDur, cause.Src) {
		m.RecordExtra(cause.Src, obs.ExtraDeny, "neighbor-conflict", 0, 0)
		return
	}

	att := &extraAttempt{target: cause.Src, pkt: pkt, phase: phaseRequested, xid: exr.XID, parent: cause.XID}
	m.extra = att
	// EXC should be back after roughly twice the propagation delay
	// (paper §4.2); time out shortly after.
	deadline := sendT.Add(2*tau + exrDur + m.ControlTx() + 4*guard)
	m.SetHold(deadline)
	m.SendAt(sendT, exr, func(error) { m.abortExtra(att) })
	m.CountersRef().ExtraAttempts++
	m.RecordExtra(cause.Src, obs.ExtraRequest, "", att.xid, att.parent)
	m.ScheduleClamped(deadline, sim.PriorityMAC, func() {
		if m.extra == att && att.phase == phaseRequested {
			m.RecordExtra(att.target, obs.ExtraDeny, "exc-timeout", att.xid, att.parent)
			m.abortExtra(att)
		}
	})
}

// clearAtNeighbors is the base's §4.2 neighbour guard, skipped when the
// ablation disables it.
func (m *MAC) clearAtNeighbors(sendT sim.Time, dur time.Duration, target packet.NodeID) bool {
	return m.opts.DisableNeighborGuard || m.ClearAtNeighbors(sendT, dur, target)
}

func (m *MAC) abortExtra(att *extraAttempt) {
	if m.extra != att {
		return
	}
	m.extra = nil
	m.SetHold(m.Engine().Now()) // release the base engine
}

// OnExtraFrame implements mac.Hooks: EXR/EXC/EXData/EXAck addressed to
// this node.
func (m *MAC) OnExtraFrame(f *packet.Frame) {
	switch f.Kind {
	case packet.KindEXR:
		m.onEXR(f)
	case packet.KindEXC:
		m.onEXC(f)
	case packet.KindEXData:
		m.onEXData(f)
	case packet.KindEXAck:
		m.onEXAck(f)
	default:
		// RTA/StolenData belong to other protocols; EW-MAC ignores
		// them.
	}
}

// onEXR runs at the negotiated node j: grant if the EXC reply fits in
// the current idle window and the extra data can arrive after the
// primary exchange completes.
func (m *MAC) onEXR(f *packet.Frame) {
	if m.granted != nil {
		m.RecordExtra(f.Src, obs.ExtraDeny, "already-granted", 0, 0)
		return // one extra grant at a time
	}
	now := m.Engine().Now()
	if m.staleEntry(f.Src, now) {
		// My own knowledge of the requester is stale: the grant instant
		// I would announce is computed against windows I can no longer
		// trust. Deny and refresh instead of granting blind.
		m.RecordExtra(f.Src, obs.ExtraDeny, "stale-delay", 0, 0)
		m.Probe(f.Src)
		return
	}
	exc := m.NewFrame(packet.KindEXC, f.Src)
	exc.DataBits = f.DataBits
	exc.XID = f.XID
	m.Piggyback(exc)
	excDur := m.FrameTx(exc)

	// The EXC must fit strictly inside my idle gap, and its arrival at
	// every other negotiated neighbor must miss their receive windows
	// (extra control packets are themselves extra communication, §4.2).
	if busyAt, busy := m.NextBusyAt(); busy {
		if now.Add(excDur + mac.Guard).After(busyAt) {
			m.RecordExtra(f.Src, obs.ExtraDeny, "gap-too-small", 0, 0)
			return
		}
	}
	if !m.clearAtNeighbors(now, excDur, f.Src) {
		m.RecordExtra(f.Src, obs.ExtraDeny, "neighbor-conflict", 0, 0)
		return
	}
	grantAt := m.PrimaryFreeAt().Add(2 * mac.Guard)
	exc.GrantAt = grantAt.Duration()
	if err := m.SendNow(exc); err != nil {
		m.RecordExtra(f.Src, obs.ExtraDeny, "transducer-busy", 0, 0)
		return
	}
	m.RecordExtra(f.Src, obs.ExtraGrant, "", f.XID, 0)
	dataDur := m.DataTx(f.DataBits)
	m.granted = &grantedExtra{from: f.Src, bits: f.DataBits, at: grantAt}
	// Suspend contention until the granted exchange (EXData + EXAck)
	// is over; release early if the data never shows.
	release := grantAt.Add(dataDur + m.ControlTx() + 8*mac.Guard)
	m.SetHold(release)
	g := m.granted
	m.ScheduleClamped(release, sim.PriorityMAC, func() {
		if m.granted == g {
			m.granted = nil
			m.SetHold(m.Engine().Now())
		}
	})
}

// onEXC runs at the requester i: schedule the EXData so it begins
// arriving at j at the granted instant (Equation (6): send at
// grant − τij).
func (m *MAC) onEXC(f *packet.Frame) {
	att := m.extra
	if att == nil || att.phase != phaseRequested || f.Src != att.target {
		return
	}
	m.CountersRef().ExtraGrants++
	now := m.Engine().Now()
	guard := m.guardFor(att.target, now)
	tau, known := m.Table().Delay(att.target)
	grantAt := sim.At(f.GrantAt)
	sendT := grantAt.Add(-tau)
	dataDur := m.DataTx(att.pkt.Bits)
	if !known || sendT.Before(now.Add(guard)) ||
		!m.clearAtNeighbors(sendT, dataDur, att.target) {
		m.RecordExtra(att.target, obs.ExtraAbort, "grant-unusable", att.xid, att.parent)
		m.abortExtra(att)
		return
	}
	att.phase = phaseGranted

	data := m.DataFrame(packet.KindEXData, att.pkt)
	data.XID = att.xid
	deadline := sendT.Add(dataDur + 2*tau + m.ControlTx() + 8*guard)
	m.SetHold(deadline)
	// The grant can lie seconds ahead; new negotiations may begin in
	// the meantime. Re-run the neighbor admission check at the actual
	// send instant — extra communication must never interfere with a
	// negotiated exchange, including ones younger than the grant.
	m.ScheduleClamped(sendT, sim.PriorityMAC, func() {
		if m.extra != att {
			return
		}
		if !m.clearAtNeighbors(m.Engine().Now(), dataDur, att.target) {
			m.RecordExtra(att.target, obs.ExtraAbort, "late-neighbor-conflict", att.xid, att.parent)
			m.abortExtra(att)
			return
		}
		if err := m.SendNow(data); err != nil {
			m.abortExtra(att)
			return
		}
		att.phase = phaseDataSent
	})
	m.ScheduleClamped(deadline, sim.PriorityMAC, func() {
		if m.extra == att {
			m.abortExtra(att)
		}
	})
}

// onEXData runs at j: the extra payload arrived after the negotiated
// exchange; deliver and confirm.
func (m *MAC) onEXData(f *packet.Frame) {
	m.DeliverData(f, true)
	_ = m.SendNow(m.NewEXAck(f)) // if the transducer is busy the sender retries normally
	if m.granted != nil && m.granted.from == f.Src {
		m.granted = nil
		m.SetHold(m.Engine().Now())
	}
}

// onEXAck completes the extra exchange at i.
func (m *MAC) onEXAck(f *packet.Frame) {
	att := m.extra
	if att == nil || f.Src != att.target || f.Seq != att.pkt.Seq {
		return
	}
	m.CountersRef().ExtraCompletions++
	m.RecordExtra(f.Src, obs.ExtraComplete, "", att.xid, att.parent)
	if !m.CompleteHead(att.pkt.Origin, att.pkt.Seq) {
		m.CompleteBySeq(att.pkt.Origin, att.pkt.Seq)
	}
	m.extra = nil
	m.SetHold(m.Engine().Now())
}

// OnRestart implements mac.Hooks: a crashed node forgets its in-flight
// extra attempt and any grant it issued.
func (m *MAC) OnRestart() {
	m.extra = nil
	m.granted = nil
}

var _ mac.PeerWatcher = (*MAC)(nil)

// OnPeerDead implements mac.PeerWatcher: a dead peer's delay-table
// entry is quarantined (marked suspect) so extra-communication
// admission never schedules against a corpse — staleEntry then denies
// with the existing "stale-delay" reason — and any in-flight extra
// exchange with the peer is abandoned.
func (m *MAC) OnPeerDead(peer packet.NodeID) {
	m.Table().MarkSuspect(peer)
	if att := m.extra; att != nil && att.target == peer {
		m.RecordExtra(att.target, obs.ExtraAbort, "peer-dead", att.xid, att.parent)
		m.abortExtra(att)
	}
	if g := m.granted; g != nil && g.from == peer {
		m.granted = nil
		m.SetHold(m.Engine().Now())
	}
}

// OnPeerAlive implements mac.PeerWatcher. The resurrection itself
// (clearing the liveness verdict) happens in the base; the delay-table
// suspect flag stays until a plausible measurement overwrites the
// entry, so a freshly resurrected peer is schedulable again only once
// its delay is re-learned.
func (m *MAC) OnPeerAlive(packet.NodeID) {}
