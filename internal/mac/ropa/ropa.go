// Package ropa implements the Reverse Opportunistic Packet Appending
// protocol (Ng, Soh & Motani, Computer Networks 2013) as characterized
// in the paper's evaluation (§5): a neighbor that overhears a sender's
// RTS and has data *for that sender* may transmit an appended request
// (RTA) during the sender's RTS→CTS waiting window; if the sender's own
// negotiation succeeds, it grants the appended transmission for the
// period after its primary exchange completes.
//
// ROPA exploits only the sender's waiting resources — never the
// receiver's — which is why its gains sit between S-FAMA's and
// EW-MAC's. It also maintains and periodically transmits two-hop
// neighbor information, the overhead/energy cost the paper charges it
// with (Figures 9 and 10).
package ropa

import (
	"time"

	"ewmac/internal/mac"
	"ewmac/internal/obs"
	"ewmac/internal/packet"
	"ewmac/internal/sim"
)

// Two-hop maintenance as in the evaluation setup: an NbrUpdate every
// updatePeriod carrying maintenanceEntries table entries (rotating
// across broadcasts), and piggybackEntries on every control frame.
const (
	updatePeriod       = 90 * time.Second
	maintenanceEntries = 4
	piggybackEntries   = 1
)

// rtaState is the appender-side record of one RTA attempt.
type rtaState struct {
	target  packet.NodeID
	pkt     mac.AppPacket
	granted bool
	// xid is the appended exchange's lineage; parent is the primary
	// handshake (the overheard RTS) whose waiting window it exploits.
	xid    uint64
	parent uint64
}

// appendReq is the primary sender's record of a pending RTA.
type appendReq struct {
	from packet.NodeID
	bits int
	xid  uint64
}

// MAC is the ROPA protocol. Its receivers answer the first RTS, as in
// MACA-U, and a losing contender plainly backs off: opportunism belongs
// to the sender's neighbours.
type MAC struct {
	mac.TwoHop
	pending *rtaState
	request *appendReq
}

var _ mac.Protocol = (*MAC)(nil)

// New builds a ROPA node.
func New(cfg mac.Config) (*MAC, error) {
	th, err := mac.NewTwoHop(cfg, updatePeriod, maintenanceEntries, piggybackEntries)
	if err != nil {
		return nil, err
	}
	m := &MAC{TwoHop: th}
	m.SetHooks(m)
	return m, nil
}

// OnSlotStart implements mac.Hooks: cleanup of append requests whose
// primary negotiation died, then periodic two-hop maintenance.
func (m *MAC) OnSlotStart(slot int64) {
	if m.request != nil && m.Role() != mac.RoleWaitCTS && m.Role() != mac.RoleSendData &&
		m.Role() != mac.RoleWaitAck {
		m.request = nil
	}
	m.TwoHop.OnSlotStart(slot)
}

// OnNegotiated implements mac.Hooks: the primary sender's CTS arrived;
// grant a pending appended request if the EXC reply fits in the idle
// window before the data slot.
func (m *MAC) OnNegotiated(*packet.Frame) {
	req := m.request
	if req == nil {
		return
	}
	m.request = nil
	now := m.Engine().Now()
	exc := m.NewFrame(packet.KindEXC, req.from)
	exc.DataBits = req.bits
	exc.XID = req.xid
	m.Piggyback(exc)
	if busyAt, busy := m.NextBusyAt(); busy {
		if now.Add(m.FrameTx(exc) + mac.Guard).After(busyAt) {
			m.RecordExtra(req.from, obs.ExtraDeny, "gap-too-small", req.xid, 0)
			return
		}
	}
	grantAt := m.PrimaryFreeAt().Add(2 * mac.Guard)
	exc.GrantAt = grantAt.Duration()
	if err := m.SendNow(exc); err != nil {
		m.RecordExtra(req.from, obs.ExtraDeny, "transducer-busy", req.xid, 0)
		return
	}
	m.RecordExtra(req.from, obs.ExtraGrant, "", req.xid, 0)
	// Stay off the channel until the appended exchange finishes.
	release := grantAt.Add(m.DataTx(req.bits) + m.ControlTx() + 8*mac.Guard)
	m.SetHold(release)
	m.ScheduleClamped(release, sim.PriorityMAC, func() {
		if !m.Held() {
			return
		}
		m.SetHold(m.Engine().Now())
	})
}

// OnOverheard implements mac.Hooks: an overheard RTS from a neighbor we
// have data for opens the appending window.
func (m *MAC) OnOverheard(f *packet.Frame) {
	if f.Kind != packet.KindRTS || m.pending != nil || m.Held() {
		return
	}
	if m.Role() != mac.RoleIdle {
		return
	}
	idx := m.Queue().FirstFor(f.Src)
	if idx < 0 {
		return
	}
	now := m.Engine().Now()
	tau, known := m.Table().Delay(f.Src)
	if !known {
		return
	}
	slots := m.Slots()
	rtsSlot := slots.SlotAt(sim.At(f.Timestamp))
	winStart := slots.StartOf(rtsSlot).Add(m.FrameTx(f) + mac.Guard)
	// The RTA must be fully received at the sender before its CTS
	// begins arriving.
	winEnd := slots.StartOf(rtsSlot + 1).Add(f.PairDelay - mac.Guard)

	pkt := m.Queue().Items()[idx]
	rta := m.NewFrame(packet.KindRTA, f.Src)
	rta.DataBits = pkt.Bits
	rta.XID = m.NewXID()
	m.Piggyback(rta)
	rtaDur := m.FrameTx(rta)

	sendT := now.Add(mac.Guard)
	if earliest := winStart.Add(-tau); sendT.Before(earliest) {
		sendT = earliest
	}
	if sendT.Add(tau + rtaDur).After(winEnd) {
		return
	}
	// ROPA knows two-hop state: avoid arriving inside any known
	// receive window.
	if !m.ClearAtNeighbors(sendT, rtaDur, f.Src) {
		return
	}

	st := &rtaState{target: f.Src, pkt: pkt, xid: rta.XID, parent: f.XID}
	m.pending = st
	// The grant (EXC) can only come after the sender receives its CTS:
	// allow until the end of the data slot.
	deadline := slots.StartOf(rtsSlot + 2).Add(slots.Len())
	m.SetHold(deadline)
	m.SendAt(sendT, rta, func(error) { m.abort(st) })
	m.CountersRef().ExtraAttempts++
	m.RecordExtra(f.Src, obs.ExtraRequest, "", st.xid, st.parent)
	m.ScheduleClamped(deadline, sim.PriorityMAC, func() {
		if m.pending == st && !st.granted {
			m.abort(st)
		}
	})
}

func (m *MAC) abort(st *rtaState) {
	if m.pending != st {
		return
	}
	m.pending = nil
	m.SetHold(m.Engine().Now())
}

// OnExtraFrame implements mac.Hooks.
func (m *MAC) OnExtraFrame(f *packet.Frame) {
	switch f.Kind {
	case packet.KindRTA:
		// Primary sender: remember the first appended request made
		// while we wait for our CTS.
		if m.Role() == mac.RoleWaitCTS && m.request == nil {
			m.request = &appendReq{from: f.Src, bits: f.DataBits, xid: f.XID}
		}
	case packet.KindEXC:
		m.onGrant(f)
	case packet.KindEXData:
		m.DeliverData(f, true)
		_ = m.SendNow(m.NewEXAck(f))
	case packet.KindEXAck:
		st := m.pending
		if st == nil || f.Src != st.target || f.Seq != st.pkt.Seq {
			return
		}
		m.CountersRef().ExtraCompletions++
		m.RecordExtra(f.Src, obs.ExtraComplete, "", st.xid, st.parent)
		m.CompleteBySeq(st.pkt.Origin, st.pkt.Seq)
		m.abort(st)
	default:
	}
}

func (m *MAC) onGrant(f *packet.Frame) {
	st := m.pending
	if st == nil || f.Src != st.target || st.granted {
		return
	}
	m.CountersRef().ExtraGrants++
	now := m.Engine().Now()
	tau, known := m.Table().Delay(st.target)
	sendT := sim.At(f.GrantAt).Add(-tau)
	if !known || sendT.Before(now.Add(mac.Guard)) {
		m.abort(st)
		return
	}
	// The packet may have been delivered by the primary path meanwhile.
	if m.Queue().FirstFor(st.target) < 0 {
		m.abort(st)
		return
	}
	st.granted = true
	data := m.DataFrame(packet.KindEXData, st.pkt)
	data.XID = st.xid
	dur := m.DataTx(st.pkt.Bits)
	deadline := sendT.Add(dur + 2*tau + m.ControlTx() + 8*mac.Guard)
	m.SetHold(deadline)
	// Re-validate against exchanges negotiated between the grant and
	// the send instant (ROPA maintains two-hop state, so it can).
	m.ScheduleClamped(sendT, sim.PriorityMAC, func() {
		if m.pending != st {
			return
		}
		if !m.ClearAtNeighbors(m.Engine().Now(), dur, st.target) {
			m.abort(st)
			return
		}
		if err := m.SendNow(data); err != nil {
			m.abort(st)
		}
	})
	m.ScheduleClamped(deadline, sim.PriorityMAC, func() {
		if m.pending == st {
			m.abort(st)
		}
	})
}

// OnRestart implements mac.Hooks: a crashed node forgets its in-flight
// RTA attempt and any appended-request it promised to serve.
func (m *MAC) OnRestart() {
	m.pending = nil
	m.request = nil
}
