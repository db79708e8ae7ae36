// Package span folds the raw observability event stream into causal
// spans: typed, timed records of one logical exchange each, linked by
// the exchange-lineage IDs (packet.Frame.XID) the MAC layers stamp on
// every frame of a handshake or extra exchange.
//
// Four span types come out of the assembler:
//
//	handshake  — one primary exchange (RTS→CTS→Data→Ack, or S-ALOHA's
//	             Data→Ack), keyed by the XID the sender allocated when
//	             it opened the round
//	extra      — one opportunistic exchange (EW-MAC EXR→EXC→EXData→
//	             EXAck, ROPA's RTA appending, CS-MAC's steal), keyed by
//	             its own XID and linked to the primary handshake whose
//	             waiting window it exploits via Parent
//	contention — one RTS contention round at one node, closed by the
//	             won/lost/timeout outcome
//	fault      — one injected fault window (inject→clear) at one node
//
// Each span carries its legs: the individual transmissions, receptions,
// losses, and lifecycle steps that compose it, in event order. The
// output is JSONL, one span per line, written when the span closes (so
// a reader can stream) plus a deterministic flush of still-open spans
// on Close.
package span

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"

	"ewmac/internal/obs"
	"ewmac/internal/packet"
	"ewmac/internal/sim"
)

// Leg is one constituent event of a span.
type Leg struct {
	// T is the leg's simulation time in fractional seconds.
	T float64 `json:"t"`
	// Node is where the leg happened.
	Node uint16 `json:"node"`
	// What names the leg: "<Kind>-tx", "<Kind>-rx", "<Kind>-lost" for
	// frame legs; "delivered", "extra-request", "extra-grant",
	// "rts"/"won"/"lost"/"timeout" for lifecycle legs.
	What string `json:"what"`
}

// Span is one assembled causal span.
type Span struct {
	// Type is "handshake", "extra", "contention", or "fault".
	Type string `json:"span"`
	// XID is the exchange lineage (zero for fault spans).
	XID uint64 `json:"xid,omitempty"`
	// Parent links an extra span to the primary handshake whose waiting
	// window it exploits (zero when unknown or not applicable).
	Parent uint64 `json:"parent,omitempty"`
	// Src and Dst are the exchange initiator and responder (for fault
	// spans, Src is the faulted node).
	Src uint16 `json:"src"`
	Dst uint16 `json:"dst,omitempty"`
	// Start and End bound the span in fractional seconds.
	Start float64 `json:"start"`
	End   float64 `json:"end"`
	// Complete reports the exchange reached its terminal success state
	// (payload delivered, contention decided, fault cleared).
	Complete bool `json:"complete"`
	// Outcome is the terminal state: "acked", "delivered", "won",
	// "lost", "timeout", "deny:<reason>", "abort:<reason>",
	// "cleared", or "open" for spans flushed at Close.
	Outcome string `json:"outcome,omitempty"`
	// Bits is the delivered payload size; Latency its generation-to-
	// delivery time. Both zero unless the span delivered data.
	Bits     int     `json:"bits,omitempty"`
	LatencyS float64 `json:"latency,omitempty"`
	// Kind annotates fault spans with the fault kind.
	Kind string `json:"kind,omitempty"`
	// Legs are the constituent events in order.
	Legs []Leg `json:"legs,omitempty"`

	seq       uint64 // open order, for deterministic Close flushing
	delivered bool
}

// Stats summarizes an assembly for programmatic checks.
type Stats struct {
	// Spans counts every span written.
	Spans int
	// Complete counts spans written with Complete set.
	Complete int
	// Handshakes / Extras / Contentions / Faults count written spans by
	// type.
	Handshakes  int
	Extras      int
	Contentions int
	Faults      int
	// Deliveries counts Delivery events seen; OrphanDeliveries counts
	// those whose XID matched no open span — the causal-coverage
	// failure the golden tests assert to be zero.
	Deliveries       int
	OrphanDeliveries int
}

// Meta is the leading line of a span file, identifying the run.
type Meta struct {
	Span     string `json:"span"` // always "meta"
	Protocol string `json:"protocol"`
	Seed     int64  `json:"seed"`
	Nodes    int    `json:"nodes"`
}

// Assembler consumes the event bus and emits spans. It implements
// obs.Recorder and, like every recorder, runs synchronously on the
// simulation goroutine.
type Assembler struct {
	bw  *bufio.Writer
	enc *json.Encoder
	err error

	open       map[uint64]*Span        // handshake/extra spans by XID
	done       map[uint64]struct{}     // lineages already terminally flushed
	contention map[packet.NodeID]*Span // one contention round per node
	faults     map[faultKey]*Span      // open fault windows
	seq        uint64                  // next span open-order number
	stats      Stats

	// outcomes interns the "deny:<reason>"/"abort:<reason>" strings so
	// repeated denials fold without concatenating.
	outcomes map[[2]string]string
}

// outcome returns the interned prefix+reason terminal-outcome string.
func (a *Assembler) outcome(prefix, reason string) string {
	k := [2]string{prefix, reason}
	if s, ok := a.outcomes[k]; ok {
		return s
	}
	if a.outcomes == nil {
		a.outcomes = make(map[[2]string]string)
	}
	s := prefix + reason
	a.outcomes[k] = s
	return s
}

type faultKey struct {
	node packet.NodeID
	kind string
}

// legName interns the "<Kind>-tx/-rx/-lost" leg labels so the
// per-frame fold never concatenates. Built once over the valid kinds.
var legName = func() map[packet.Kind][3]string {
	m := make(map[packet.Kind][3]string)
	for k := packet.Kind(1); k.Valid(); k++ {
		s := k.String()
		m[k] = [3]string{s + "-tx", s + "-rx", s + "-lost"}
	}
	return m
}()

const (
	legTx = iota
	legRx
	legLost
)

// New returns an assembler writing span JSONL to w.
func New(w io.Writer) *Assembler {
	bw := bufio.NewWriterSize(w, 1<<16)
	return &Assembler{
		bw:         bw,
		enc:        json.NewEncoder(bw),
		open:       make(map[uint64]*Span),
		done:       make(map[uint64]struct{}),
		contention: make(map[packet.NodeID]*Span),
		faults:     make(map[faultKey]*Span),
	}
}

// WriteMeta writes the leading meta line. Call once, before the run.
func (a *Assembler) WriteMeta(protocol string, seed int64, nodes int) {
	a.write(Meta{Span: "meta", Protocol: protocol, Seed: seed, Nodes: nodes})
}

func (a *Assembler) write(v any) {
	if a.err != nil {
		return
	}
	if err := a.enc.Encode(v); err != nil {
		a.err = err
	}
}

// flush writes a span and removes it from the open set.
func (a *Assembler) flush(s *Span) {
	a.stats.Spans++
	if s.Complete {
		a.stats.Complete++
	}
	switch s.Type {
	case "handshake":
		a.stats.Handshakes++
	case "extra":
		a.stats.Extras++
	case "contention":
		a.stats.Contentions++
	case "fault":
		a.stats.Faults++
	}
	a.write(s)
}

// responderKind reports whether a frame kind is sent by the exchange's
// responder, so span src/dst can be oriented even when the first
// observed frame of a lineage is a reply.
func responderKind(k packet.Kind) bool {
	switch k {
	case packet.KindCTS, packet.KindAck, packet.KindEXC, packet.KindEXAck:
		return true
	default:
		return false
	}
}

// get returns the open span for xid, creating it from the frame when
// absent. f may be nil when the caller knows the span exists. A
// lineage that already flushed terminally stays closed: stragglers
// (duplicate Acks after a retransmission, late overheard copies) must
// not resurrect a second span for the same exchange.
func (a *Assembler) get(at sim.Time, xid uint64, f *packet.Frame) *Span {
	if s, ok := a.open[xid]; ok {
		return s
	}
	if _, closed := a.done[xid]; closed || f == nil {
		return nil
	}
	typ := "handshake"
	if f.Kind.IsExtra() {
		typ = "extra"
	}
	src, dst := uint16(f.Src), uint16(f.Dst)
	if responderKind(f.Kind) {
		src, dst = dst, src
	}
	a.seq++
	s := &Span{
		Type: typ, XID: xid, Src: src, Dst: dst,
		Start: at.Seconds(), End: at.Seconds(), seq: a.seq,
	}
	a.open[xid] = s
	return s
}

// leg appends one leg and extends the span's end time.
func (s *Span) leg(at float64, node packet.NodeID, what string) {
	s.Legs = append(s.Legs, Leg{T: at, Node: uint16(node), What: what})
	if at > s.End {
		s.End = at
	}
}

// closeSpan finalizes and writes an open handshake/extra span.
func (a *Assembler) closeSpan(s *Span, at float64, complete bool, outcome string) {
	if at > s.End {
		s.End = at
	}
	// A span that already delivered its payload stays a success no
	// matter how the bookkeeping around it ends.
	if !s.delivered {
		s.Complete = complete
		s.Outcome = outcome
	}
	delete(a.open, s.XID)
	a.done[s.XID] = struct{}{}
	a.flush(s)
}

// Record implements obs.Recorder.
func (a *Assembler) Record(at sim.Time, e obs.Event) {
	t := at.Seconds()
	switch ev := e.(type) {
	case *obs.TxBegin:
		if ev.Frame.XID == 0 {
			return
		}
		s := a.get(at, ev.Frame.XID, ev.Frame)
		if s == nil {
			return
		}
		s.leg(t, ev.Node, legName[ev.Frame.Kind][legTx])
		if end := t + ev.Dur.Seconds(); end > s.End {
			s.End = end
		}

	case *obs.FrameRx:
		f := ev.Frame
		if f.XID == 0 || f.Dst != ev.Node {
			return
		}
		s := a.get(at, f.XID, f)
		if s == nil {
			return
		}
		s.leg(t, ev.Node, legName[f.Kind][legRx])
		// The final acknowledgement arriving back at the initiator is
		// the span's terminal success: upgrade and flush.
		if (f.Kind == packet.KindAck || f.Kind == packet.KindEXAck) &&
			uint16(ev.Node) == s.Src {
			s.delivered = true // Delivery at the peer preceded this Ack
			s.Complete = true
			s.Outcome = "acked"
			delete(a.open, s.XID)
			a.done[s.XID] = struct{}{}
			a.flush(s)
		}

	case *obs.FrameLoss:
		f := ev.Frame
		if f.XID == 0 || f.Dst != ev.Node {
			return
		}
		if s := a.get(at, f.XID, f); s != nil {
			s.leg(t, ev.Node, legName[f.Kind][legLost])
		}

	case *obs.Contention:
		a.onContention(t, ev)

	case *obs.Delivery:
		a.stats.Deliveries++
		s := a.open[ev.XID]
		if ev.XID == 0 || s == nil {
			a.stats.OrphanDeliveries++
			return
		}
		s.delivered = true
		s.Complete = true
		s.Outcome = "delivered" // upgraded to "acked" if the Ack lands
		s.Bits = ev.Bits
		s.LatencyS = ev.Latency.Seconds()
		s.leg(t, ev.Node, "delivered")

	case *obs.Extra:
		a.onExtra(t, ev)

	case *obs.Fault:
		k := faultKey{node: ev.Node, kind: ev.Kind}
		switch ev.Action {
		case obs.FaultInject:
			if a.faults[k] == nil {
				a.seq++
				s := &Span{
					Type: "fault", Src: uint16(ev.Node), Kind: ev.Kind,
					Start: t, End: t, seq: a.seq,
				}
				s.leg(t, ev.Node, "inject")
				a.faults[k] = s
			}
		case obs.FaultClear:
			if s := a.faults[k]; s != nil {
				s.leg(t, ev.Node, "clear")
				s.Complete = true
				s.Outcome = "cleared"
				delete(a.faults, k)
				a.flush(s)
			}
		}
	}
}

// onContention folds one contention step into the per-node contention
// span and, on terminal outcomes, closes the handshake span too.
func (a *Assembler) onContention(t float64, ev *obs.Contention) {
	switch ev.Outcome {
	case obs.ContentionRTS:
		a.seq++
		s := &Span{
			Type: "contention", XID: ev.XID,
			Src: uint16(ev.Node), Dst: uint16(ev.Peer),
			Start: t, End: t, seq: a.seq,
		}
		s.leg(t, ev.Node, "rts")
		// A node can only contend for one exchange at a time; a fresh
		// RTS supersedes any round left open by a lost cause.
		if prev := a.contention[ev.Node]; prev != nil {
			prev.Outcome = "superseded"
			a.flush(prev)
		}
		a.contention[ev.Node] = s

	case obs.ContentionGrant:
		// Receiver-side: a leg on the granted handshake span.
		if s := a.open[ev.XID]; s != nil {
			s.leg(t, ev.Node, "grant")
		}

	case obs.ContentionWon, obs.ContentionLost, obs.ContentionTimeout:
		if s := a.contention[ev.Node]; s != nil {
			s.leg(t, ev.Node, ev.Outcome)
			s.Complete = true
			s.Outcome = ev.Outcome
			delete(a.contention, ev.Node)
			a.flush(s)
		}
		// lost/timeout also terminate the handshake the node was
		// driving: the lineage dies and any retry opens a fresh XID.
		if ev.Outcome != obs.ContentionWon && ev.XID != 0 {
			if s := a.open[ev.XID]; s != nil {
				a.closeSpan(s, t, false, ev.Outcome)
			}
		}
	}
}

// onExtra folds one extra-communication lifecycle step into its span.
func (a *Assembler) onExtra(t float64, ev *obs.Extra) {
	if ev.XID == 0 {
		// Pre-flight denial: no frame ever existed, nothing to span.
		return
	}
	if _, closed := a.done[ev.XID]; closed {
		return
	}
	s := a.open[ev.XID]
	if s == nil {
		// The request event fires when the attempt is admitted, which
		// can precede the (scheduled) transmission: open the span here
		// so the lifecycle is fully covered.
		a.seq++
		s = &Span{
			Type: "extra", XID: ev.XID, Parent: ev.Parent,
			Src: uint16(ev.Node), Dst: uint16(ev.Peer),
			Start: t, End: t, seq: a.seq,
		}
		a.open[ev.XID] = s
	}
	if s.Parent == 0 {
		s.Parent = ev.Parent
	}
	switch ev.Action {
	case obs.ExtraRequest:
		s.leg(t, ev.Node, "extra-request")
	case obs.ExtraGrant:
		s.leg(t, ev.Node, "extra-grant")
	case obs.ExtraDeny:
		s.leg(t, ev.Node, "extra-deny")
		a.closeSpan(s, t, false, a.outcome("deny:", ev.Reason))
	case obs.ExtraAbort:
		s.leg(t, ev.Node, "extra-abort")
		a.closeSpan(s, t, false, a.outcome("abort:", ev.Reason))
	case obs.ExtraComplete:
		s.leg(t, ev.Node, "extra-complete")
		s.delivered = true
		s.Complete = true
		s.Outcome = "acked"
		delete(a.open, s.XID)
		a.done[s.XID] = struct{}{}
		a.flush(s)
	}
}

// Close flushes every still-open span (in deterministic order: start
// time, then XID, then open order) followed by the buffered output.
func (a *Assembler) Close() error {
	rest := make([]*Span, 0, len(a.open)+len(a.contention)+len(a.faults))
	for _, s := range a.open {
		rest = append(rest, s)
	}
	for _, s := range a.contention {
		rest = append(rest, s)
	}
	for _, s := range a.faults {
		rest = append(rest, s)
	}
	sort.Slice(rest, func(i, j int) bool {
		if rest[i].Start != rest[j].Start {
			return rest[i].Start < rest[j].Start
		}
		if rest[i].XID != rest[j].XID {
			return rest[i].XID < rest[j].XID
		}
		return rest[i].seq < rest[j].seq
	})
	for _, s := range rest {
		if s.Outcome == "" {
			s.Outcome = "open"
		}
		a.flush(s)
	}
	a.open = make(map[uint64]*Span)
	a.done = make(map[uint64]struct{})
	a.contention = make(map[packet.NodeID]*Span)
	a.faults = make(map[faultKey]*Span)
	if err := a.bw.Flush(); err != nil && a.err == nil {
		a.err = err
	}
	return a.err
}
