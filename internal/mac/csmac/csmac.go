// Package csmac implements the Channel Stealing MAC (Chen, Liu, Chang &
// Shih, OCEANS 2011) as characterized in the paper's evaluation (§5):
// a node that overhears a CTS — so it can compute, from the
// piggybacked pair delay, the gap during which the CTS sender sits
// idle waiting for the negotiated data — transmits its own data packet
// for that node *directly*, with no extra negotiation, timed to be
// fully received inside the gap, i.e. before the negotiated packet
// arrives ("send data packets directly after determining that the
// packet will arrive at the receiver before the negotiated packet").
//
// The aggression is the point: at light load stealing is competitive
// with EW-MAC because it skips the EXR/EXC round trip, but CS-MAC does
// not coordinate stealers, so as load grows several neighbors steal
// the same gap and collide (Figure 6), and as density grows the gaps
// themselves shrink below a data transmission time (Figure 7). CS-MAC
// also piggybacks two-hop neighbor state on every control frame and
// refreshes it periodically, the overhead that dominates Figure 10.
package csmac

import (
	"time"

	"ewmac/internal/mac"
	"ewmac/internal/obs"
	"ewmac/internal/packet"
	"ewmac/internal/sim"
)

// Two-hop maintenance as in the evaluation setup: an NbrUpdate every
// updatePeriod carrying maintenanceEntries table entries (rotating
// across broadcasts), and piggybackEntries on every control frame —
// two-hop state, so heavier than EW-MAC's single pair entry.
const (
	updatePeriod       = 75 * time.Second
	maintenanceEntries = 8
	piggybackEntries   = 4
)

type stealState struct {
	pkt mac.AppPacket
	// xid is the steal's exchange lineage; parent is the primary
	// handshake (the overheard CTS) whose gap it steals.
	xid    uint64
	parent uint64
}

// MAC is the CS-MAC protocol: the shared handshake with first-RTS-wins
// receivers, two-hop maintenance, and the stealing path.
type MAC struct {
	mac.TwoHop
	steal *stealState
}

var _ mac.Protocol = (*MAC)(nil)

// New builds a CS-MAC node.
func New(cfg mac.Config) (*MAC, error) {
	th, err := mac.NewTwoHop(cfg, updatePeriod, maintenanceEntries, piggybackEntries)
	if err != nil {
		return nil, err
	}
	m := &MAC{TwoHop: th}
	m.SetHooks(m)
	return m, nil
}

// OnOverheard implements mac.Hooks: an overheard CTS opens a stealing
// opportunity. The CTS sender j is about to sit idle for the whole
// CTS→Data propagation gap (period V of the paper's Figure 2); if this
// node has data *for j* whose transmission fits inside that gap — "the
// data packet transmission time is less than the propagation time
// between two packets", the CS-MAC admission rule quoted in the
// paper's §2 — it transmits the data directly, with no negotiation,
// timed to be fully received at j before the negotiated data lands.
// j acknowledges after its negotiated exchange completes.
//
// CS-MAC checks nothing else: in particular it ignores the possibility
// that several of j's neighbors steal the same gap concurrently, which
// is exactly why its throughput collapses under load (Figure 6) and
// why shrinking gaps (denser networks, Figure 7) starve it.
func (m *MAC) OnOverheard(f *packet.Frame) {
	if f.Kind != packet.KindCTS || m.steal != nil || m.Held() {
		return
	}
	if m.Role() != mac.RoleIdle {
		return
	}
	j := f.Src
	tauPair := f.PairDelay
	if tauPair <= 0 {
		return
	}
	idx := m.Queue().FirstFor(j)
	if idx < 0 {
		return
	}
	now := m.Engine().Now()
	tau, known := m.Table().Delay(j)
	if !known {
		return
	}
	pkt := m.Queue().Items()[idx]
	dur := m.DataTx(pkt.Bits)

	// Admission: TD must fit inside the pair's propagation gap, and the
	// whole steal must be received at j before the negotiated data
	// lands there.
	if dur+mac.Guard > tauPair {
		m.RecordExtra(j, obs.ExtraDeny, "gap-too-small", 0, f.XID)
		return
	}
	slots := m.Slots()
	ctsSlot := slots.SlotAt(sim.At(f.Timestamp))
	dataLands := slots.StartOf(ctsSlot + 1).Add(tauPair)
	sendT := now.Add(mac.Guard)
	if sendT.Add(tau + dur + mac.Guard).After(dataLands) {
		m.RecordExtra(j, obs.ExtraDeny, "too-late", 0, f.XID)
		return
	}

	data := m.DataFrame(packet.KindStolenData, pkt)
	data.XID = m.NewXID()
	st := &stealState{pkt: pkt, xid: data.XID, parent: f.XID}
	m.steal = st
	// j acknowledges only after its negotiated exchange: wait through
	// that exchange's ack slot plus the return propagation.
	ackSlot := slots.AckSlot(ctsSlot+1, m.DataTx(f.DataBits), tauPair)
	deadline := slots.StartOf(ackSlot + 1).Add(tau + m.ControlTx() + 8*mac.Guard)
	m.SetHold(deadline)
	m.SendAt(sendT, data, func(error) { m.abort(st, false) })
	m.CountersRef().ExtraAttempts++
	m.RecordExtra(j, obs.ExtraRequest, "", st.xid, st.parent)
	m.ScheduleClamped(deadline, sim.PriorityMAC, func() {
		if m.steal == st {
			m.abort(st, true)
		}
	})
}

// abort clears the steal; failed counts the lost data as a
// retransmission (the payload went on air and must be sent again).
func (m *MAC) abort(st *stealState, failed bool) {
	if m.steal != st {
		return
	}
	if failed {
		m.CountersRef().Retransmissions++
		m.CountersRef().RetransmittedBits += uint64(st.pkt.Bits)
		m.RecordExtra(st.pkt.Dst, obs.ExtraAbort, "steal-unacked", st.xid, st.parent)
	}
	m.steal = nil
	m.SetHold(m.Engine().Now())
}

// OnExtraFrame implements mac.Hooks.
func (m *MAC) OnExtraFrame(f *packet.Frame) {
	switch f.Kind {
	case packet.KindStolenData:
		m.DeliverData(f, true)
		// The stolen data landed in this node's waiting window; the
		// acknowledgement must wait until the negotiated exchange is
		// over or it would occupy the transducer when the negotiated
		// data arrives.
		at := m.PrimaryFreeAt().Add(mac.Guard)
		if at.Before(m.Engine().Now()) {
			at = m.Engine().Now()
		}
		m.SendAt(at, m.NewEXAck(f), nil)
	case packet.KindEXAck:
		st := m.steal
		if st == nil || f.Seq != st.pkt.Seq {
			return
		}
		m.CountersRef().ExtraCompletions++
		m.RecordExtra(f.Src, obs.ExtraComplete, "", st.xid, st.parent)
		m.CompleteBySeq(st.pkt.Origin, st.pkt.Seq)
		m.abort(st, false)
	default:
	}
}

// OnRestart implements mac.Hooks: a crashed node forgets its in-flight
// steal.
func (m *MAC) OnRestart() {
	m.steal = nil
}
