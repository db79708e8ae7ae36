// Package saloha implements slotted ALOHA with acknowledgements — an
// extension baseline beyond the paper's evaluation set. It skips the
// RTS/CTS negotiation entirely: a backlogged node transmits its data
// packet at a slot boundary and waits one round trip for the Ack,
// backing off binary-exponentially on silence.
//
// It exists for two reasons. First, as the classic lower anchor for
// handshake protocols: without reservations, every overlapping data
// packet is lost whole, so ALOHA collapses far earlier than S-FAMA as
// load grows. Second, as a demonstration that the mac.Node core
// (queue, overload gates, liveness, slot loop, retry round) composes
// into protocols that do not share the four-way-handshake engine.
package saloha

import (
	"ewmac/internal/mac"
	"ewmac/internal/obs"
	"ewmac/internal/packet"
	"ewmac/internal/phy"
	"ewmac/internal/sim"
)

// MAC is the slotted-ALOHA protocol: a Data→Ack loop on the shared
// mac.Node core instead of the four-way handshake of mac.Base.
type MAC struct {
	mac.Node

	waitingAck  bool
	ackDeadline int64
	sentSeq     uint32
	// sentXID is the lineage of the data transmission awaiting its Ack.
	sentXID uint64
	// waitSlot is the slot the current ack wait started at (watchdog
	// input).
	waitSlot int64
}

var _ mac.Protocol = (*MAC)(nil)

// New builds a slotted-ALOHA node.
func New(cfg mac.Config) (*MAC, error) {
	m := &MAC{}
	if err := m.Init(cfg, "saloha", "ack timeouts", m.onSlot); err != nil {
		return nil, err
	}
	return m, nil
}

// Restart cold-starts the node after a crash/recovery cycle: on top of
// mac.Node's reset, the in-flight ack wait is forgotten.
func (m *MAC) Restart() {
	m.setWaiting(false, m.Slots().SlotAt(m.Engine().Now()))
	m.Node.Restart()
}

// setWaiting flips the single piece of protocol state S-ALOHA has,
// recording it as an idle/wait-ack transition.
func (m *MAC) setWaiting(w bool, slot int64) {
	if m.Observing() && w != m.waitingAck {
		from, to := "idle", "wait-ack"
		if !w {
			from, to = to, from
		}
		obs.MACState{Node: m.ID(), From: from, To: to, Slot: slot}.Emit(m.RecNow())
	}
	m.waitingAck = w
}

func (m *MAC) onSlot(s int64) {
	// Watchdog: an ack wait far past its deadline-derived bound is
	// force-reset.
	if m.waitingAck && m.WatchdogTripped("wait-ack", s-m.waitSlot, m.ackDeadline-m.waitSlot+2) {
		m.Restart()
	}
	if m.waitingAck {
		if s >= m.ackDeadline {
			m.setWaiting(false, s)
			c := m.CountersRef()
			c.Retransmissions++
			m.emitTimeout(s)
			head, ok := m.Queue().Peek()
			if ok {
				c.RetransmittedBits += uint64(head.Bits)
			}
			m.FailRound(head, ok)
		}
		return
	}
	if m.IsSink() {
		return
	}
	head, ok, _ := m.NextHead()
	if !ok {
		return
	}
	if modem := m.Modem(); modem.Transmitting() || modem.Receiving() {
		return
	}
	if m.HoldOff(s) {
		return
	}
	// Each transmission attempt is its own exchange: a retransmission
	// after a lost Ack gets a fresh lineage, like a fresh RTS round in
	// the handshake protocols.
	f := &packet.Frame{
		Kind:        packet.KindData,
		Src:         m.ID(),
		Dst:         head.Dst,
		Seq:         head.Seq,
		Origin:      head.Origin,
		GeneratedAt: head.GeneratedAt,
		DataBits:    head.Bits,
		Timestamp:   m.LocalNow().Duration(),
		XID:         m.NewXID(),
	}
	if err := m.Modem().Transmit(f); err != nil {
		return
	}
	m.setWaiting(true, s)
	m.BeginRound(head)
	m.waitSlot = s
	m.sentSeq = head.Seq
	m.sentXID = f.XID
	// The data may span several slots (Equation (5)); the Ack comes one
	// slot after it fully arrives, worst case τmax away.
	slots := m.Slots()
	m.ackDeadline = slots.AckSlot(s, m.DataTx(head.Bits), slots.TauMax) + 2
}

// OnFrameReceived implements phy.Listener.
func (m *MAC) OnFrameReceived(f *packet.Frame) {
	// Any decoded frame proves the peer transmits: resurrect it if the
	// liveness layer had written it off.
	m.NoteAlive(f.Src)
	switch f.Kind {
	case packet.KindData:
		if f.Dst != m.ID() {
			return
		}
		m.DeliverData(f, false)
		ack := &packet.Frame{Kind: packet.KindAck, Src: m.ID(), Dst: f.Src, Seq: f.Seq, XID: f.XID}
		// The Ack goes out at the next slot boundary to keep the
		// channel slot-aligned.
		slots := m.Slots()
		m.ScheduleClamped(slots.StartOf(slots.SlotAt(m.Engine().Now())+1), sim.PriorityMAC, func() {
			ack.Timestamp = m.LocalNow().Duration()
			_ = m.Modem().Transmit(ack)
		})
	case packet.KindAck:
		if f.Dst != m.ID() || !m.waitingAck || f.Seq != m.sentSeq {
			return
		}
		m.setWaiting(false, m.Slots().SlotAt(m.Engine().Now()))
		m.CompleteRound()
	default:
		// ALOHA ignores every negotiation frame.
	}
}

// emitTimeout records an unanswered data transmission (ALOHA has no
// RTS round; the ack wait is its whole contention).
func (m *MAC) emitTimeout(slot int64) {
	if m.Observing() {
		if head, ok := m.Queue().Peek(); ok {
			obs.Contention{
				Node: m.ID(), Peer: head.Dst,
				Outcome: obs.ContentionTimeout, Slot: slot, XID: m.sentXID,
			}.Emit(m.RecNow())
		}
	}
}

// OnFrameLost implements phy.Listener.
func (m *MAC) OnFrameLost(*packet.Frame, phy.LossReason) {}

// OnTxDone implements phy.Listener.
func (m *MAC) OnTxDone(*packet.Frame) {}
