package mac

import (
	"slices"
	"time"

	"ewmac/internal/packet"
	"ewmac/internal/sim"
)

// Interval is a half-open busy window [Start, End).
type Interval struct {
	Start, End sim.Time
}

// Overlaps reports whether two intervals intersect.
func (iv Interval) Overlaps(o Interval) bool {
	return iv.Start < o.End && o.Start < iv.End
}

// Exchange is one overheard primary negotiation. From an RTS/CTS pair a
// bystander can predict, to the microsecond, when each party transmits
// and receives for the rest of the four-way handshake (paper §4.2):
// that prediction is what makes safe extra communication possible.
type Exchange struct {
	// Sender initiated with RTS and will transmit the data.
	Sender packet.NodeID
	// Receiver answers with CTS, receives data, sends Ack.
	Receiver packet.NodeID
	// RTSSlot is the slot the RTS was sent in.
	RTSSlot int64
	// PairDelay is τ between sender and receiver (piggybacked).
	PairDelay time.Duration
	// DataTx is the announced data transmission time.
	DataTx time.Duration
	// Confirmed is true once the CTS has been overheard.
	Confirmed bool
}

// DataSlot returns the slot the data transmission starts in.
func (e *Exchange) DataSlot() int64 { return e.RTSSlot + 2 }

// AckSlot returns the receiver's Ack slot per Equation (5).
func (e *Exchange) AckSlot(s SlotConfig) int64 {
	return s.AckSlot(e.DataSlot(), e.DataTx, e.PairDelay)
}

// EndSlot returns the first slot after the exchange completes.
func (e *Exchange) EndSlot(s SlotConfig) int64 {
	if !e.Confirmed {
		// A speculative exchange (RTS only) either confirms in slot
		// t+1 or dies.
		return e.RTSSlot + 2
	}
	return e.AckSlot(s) + 1
}

// windows holds up to two busy windows of one party in one exchange.
type windows struct {
	w [2]Interval
	n int
}

func (ws *windows) add(start sim.Time, d time.Duration) {
	ws.w[ws.n] = Interval{start, start.Add(d)}
	ws.n++
}

// overlaps reports whether iv intersects any of the windows.
func (ws *windows) overlaps(iv Interval) bool {
	for _, w := range ws.w[:ws.n] {
		if iv.Overlaps(w) {
			return true
		}
	}
	return false
}

// rxWindows returns when node id is receiving within this exchange
// (none if id is not a party).
func (e *Exchange) rxWindows(s SlotConfig, id packet.NodeID) windows {
	var out windows
	switch id {
	case e.Sender:
		// CTS arrives in slot t+1; Ack arrives in the ack slot.
		out.add(s.StartOf(e.RTSSlot+1).Add(e.PairDelay), s.CtrlDur())
		if e.Confirmed {
			out.add(s.StartOf(e.AckSlot(s)).Add(e.PairDelay), s.CtrlDur())
		}
	case e.Receiver:
		// RTS already arrived (past); data arrives in slot t+2.
		if e.Confirmed {
			out.add(s.StartOf(e.DataSlot()).Add(e.PairDelay), e.DataTx)
		}
	}
	return out
}

// Ledger tracks the negotiations a node has overheard, answering two
// questions: "until which slot must I stay quiet?" (the S-FAMA defer
// rule every protocol here inherits) and "would a transmission of mine,
// arriving at neighbor n during [a, b), interfere with anything I know
// n is doing?" (the EW-MAC extra-communication admission check).
//
// Exchanges are stored by value and pruned in place, so a warm ledger
// records overheard negotiations without allocating. The *Exchange
// returned by ObserveRTS, ObserveCTS and Lookup points into that
// storage: it is valid only until the ledger's next mutation
// (ObserveRTS, ObserveCTS, ObserveData, Prune, Clear).
type Ledger struct {
	slots     SlotConfig
	exchanges []Exchange
	// busy is BusyParties' result buffer, reused across calls.
	busy []packet.NodeID
}

// NewLedger returns an empty ledger over the given slot geometry.
func NewLedger(slots SlotConfig) *Ledger {
	return &Ledger{slots: slots}
}

// Clear drops every tracked exchange (node cold-start after a crash).
func (l *Ledger) Clear() { l.exchanges = l.exchanges[:0] }

// add appends a zeroed exchange for the pair and returns it.
func (l *Ledger) add(sender, receiver packet.NodeID) *Exchange {
	l.exchanges = append(l.exchanges, Exchange{Sender: sender, Receiver: receiver})
	return &l.exchanges[len(l.exchanges)-1]
}

// ObserveRTS records a speculative exchange from an overheard RTS.
func (l *Ledger) ObserveRTS(f *packet.Frame, slot int64, dataTx time.Duration) *Exchange {
	e := l.find(f.Src, f.Dst)
	if e == nil {
		e = l.add(f.Src, f.Dst)
	}
	e.RTSSlot = slot
	e.PairDelay = f.PairDelay
	e.DataTx = dataTx
	e.Confirmed = false
	return e
}

// ObserveCTS confirms (or creates) an exchange from an overheard CTS.
// The CTS's source is the exchange receiver and its destination the
// sender; ctsSlot is the slot the CTS was sent in (RTSSlot+1).
func (l *Ledger) ObserveCTS(f *packet.Frame, ctsSlot int64, dataTx time.Duration) *Exchange {
	e := l.find(f.Dst, f.Src)
	if e == nil {
		e = l.add(f.Dst, f.Src)
	}
	e.RTSSlot = ctsSlot - 1
	e.PairDelay = f.PairDelay
	if dataTx > 0 {
		e.DataTx = dataTx
	}
	e.Confirmed = true
	return e
}

// ObserveData covers an overheard data frame from an exchange whose
// negotiation was missed: if the pair is untracked, it records a
// confirmed exchange with the data in dataSlot, so the node stays quiet
// through its Ack. A tracked pair is left as it is.
func (l *Ledger) ObserveData(sender, receiver packet.NodeID, dataSlot int64, tau, dataTx time.Duration) {
	if l.find(sender, receiver) != nil {
		return
	}
	e := l.add(sender, receiver)
	e.RTSSlot = dataSlot - 2
	e.PairDelay = tau
	e.DataTx = dataTx
	e.Confirmed = true
}

func (l *Ledger) find(sender, receiver packet.NodeID) *Exchange {
	for i := range l.exchanges {
		if e := &l.exchanges[i]; e.Sender == sender && e.Receiver == receiver {
			return e
		}
	}
	return nil
}

// Prune drops exchanges that ended before the current slot, compacting
// the survivors in place.
func (l *Ledger) Prune(currentSlot int64) {
	kept := l.exchanges[:0]
	for i := range l.exchanges {
		if e := &l.exchanges[i]; e.EndSlot(l.slots) > currentSlot {
			kept = append(kept, *e)
		}
	}
	l.exchanges = kept
}

// QuietUntilSlot returns the first slot in which this node may contend
// again: one past the end of every exchange it knows about. This is the
// slotted-FAMA defer rule.
func (l *Ledger) QuietUntilSlot() int64 {
	var until int64
	for i := range l.exchanges {
		if end := l.exchanges[i].EndSlot(l.slots); end > until {
			until = end
		}
	}
	return until
}

// QuietUntilSlotConfirmed is QuietUntilSlot over confirmed exchanges
// only. EW-MAC receivers arbitrate among concurrent RTS attempts by
// random priority instead of deferring on every overheard RTS (paper
// §3.1), so their grant decision ignores speculative entries.
func (l *Ledger) QuietUntilSlotConfirmed() int64 {
	var until int64
	for i := range l.exchanges {
		e := &l.exchanges[i]
		if !e.Confirmed {
			continue
		}
		if end := e.EndSlot(l.slots); end > until {
			until = end
		}
	}
	return until
}

// RxConflict reports whether an arrival at node id spanning the given
// interval would overlap a window in which id is predicted to be
// receiving. Interfering with a neighbor's reception is the one thing
// extra communication must never do (paper §4.2).
func (l *Ledger) RxConflict(id packet.NodeID, iv Interval) bool {
	for i := range l.exchanges {
		if ws := l.exchanges[i].rxWindows(l.slots, id); ws.overlaps(iv) {
			return true
		}
	}
	return false
}

// BusyParties returns the IDs currently involved in tracked exchanges,
// sorted for determinism. The slice is the ledger's own buffer: it is
// valid until the next BusyParties call, and callers must not modify
// it.
func (l *Ledger) BusyParties() []packet.NodeID {
	out := l.busy[:0]
	for i := range l.exchanges {
		out = append(out, l.exchanges[i].Sender, l.exchanges[i].Receiver)
	}
	slices.Sort(out)
	out = slices.Compact(out)
	l.busy = out
	return out
}
