// Package slotprof profiles how every node spends every slot of the
// measurement window, classified into the waiting-resource periods of
// the paper's Figure 2:
//
//	tx        — transmitting a primary (negotiated) frame
//	rx        — receiving any frame (decoded or lost mid-air)
//	reclaimed — transmitting or receiving an extra-communication frame
//	            (EXR/EXC/EXData/EXAck, RTA, StolenData): waiting
//	            resource the protocol exploited instead of idling
//	wait      — engaged in an exchange (non-idle MAC role) but neither
//	            transmitting nor receiving: the idle waiting the paper's
//	            extra communication targets
//	guard     — everything else (truly idle, or guard margins)
//
// Classification is priority-ordered (tx > rx > wait > guard, extra
// promoting to reclaimed), over the elementary segments induced by all
// interval endpoints, so the five classes partition each slot exactly:
// for every node and slot they sum to the slot length by construction.
//
// The headline figure is the waiting-resource exploitation ratio
// reclaimed / (reclaimed + wait): the fraction of would-be idle waiting
// a protocol converted into useful transfer. EW-MAC exploits waiting
// windows by design; S-FAMA never does (ratio identically zero), which
// is the comparison the paper's Figures 6–8 quantify end-to-end.
package slotprof

import (
	"bufio"
	"cmp"
	"io"
	"slices"
	"strconv"
	"time"

	"ewmac/internal/obs"
	"ewmac/internal/packet"
	"ewmac/internal/sim"
)

// Config configures a Profiler.
type Config struct {
	// Protocol labels the summary line.
	Protocol string
	// SlotLen is the slot length (mac.SlotConfig.Len()).
	SlotLen time.Duration
	// BitRate reconstructs reception durations from FrameRx/FrameLoss
	// completion times.
	BitRate float64
	// Start / End bound the measurement window; only slots fully inside
	// it are profiled. End may be clipped further by Finish.
	Start, End sim.Time
	// Writer receives the per-slot/per-node/summary JSONL.
	Writer io.Writer
}

// interval is one half-open busy interval [start, end) in engine ns.
type interval struct {
	start, end int64
	extra      bool
}

// nodeProf accumulates one node's raw intervals.
type nodeProf struct {
	tx, rx, busy []interval
	busySince    int64
	engaged      bool
}

// Profiler consumes the event bus and classifies slot time. It
// implements obs.Recorder.
type Profiler struct {
	cfg   Config
	nodes map[packet.NodeID]*nodeProf
}

// SlotRecord is one per-node, per-slot classification line. All
// durations are fractional seconds and sum to the slot length.
type SlotRecord struct {
	Rec       string  `json:"rec"` // "slot"
	Node      uint16  `json:"node"`
	Slot      int64   `json:"slot"`
	Tx        float64 `json:"tx"`
	Rx        float64 `json:"rx"`
	Wait      float64 `json:"wait"`
	Reclaimed float64 `json:"reclaimed"`
	Guard     float64 `json:"guard"`
}

// NodeRecord is one node's totals over the whole window.
type NodeRecord struct {
	Rec       string  `json:"rec"` // "node"
	Node      uint16  `json:"node"`
	Tx        float64 `json:"tx"`
	Rx        float64 `json:"rx"`
	Wait      float64 `json:"wait"`
	Reclaimed float64 `json:"reclaimed"`
	Guard     float64 `json:"guard"`
	Exploit   float64 `json:"exploit"`
}

// Summary is the whole-run aggregate, also returned by Finish.
type Summary struct {
	Rec       string  `json:"rec"` // "summary"
	Protocol  string  `json:"protocol"`
	SlotLenS  float64 `json:"slot_len"`
	Slots     int64   `json:"slots"`
	Nodes     int     `json:"nodes"`
	Tx        float64 `json:"tx"`
	Rx        float64 `json:"rx"`
	Wait      float64 `json:"wait"`
	Reclaimed float64 `json:"reclaimed"`
	Guard     float64 `json:"guard"`
	// Exploit is the waiting-resource exploitation ratio
	// reclaimed/(reclaimed+wait), the profiler's headline figure.
	Exploit float64 `json:"exploit"`
}

// New returns a Profiler for the given window.
func New(cfg Config) *Profiler {
	return &Profiler{cfg: cfg, nodes: make(map[packet.NodeID]*nodeProf)}
}

func (p *Profiler) node(id packet.NodeID) *nodeProf {
	n := p.nodes[id]
	if n == nil {
		n = &nodeProf{}
		p.nodes[id] = n
	}
	return n
}

// Record implements obs.Recorder.
func (p *Profiler) Record(at sim.Time, e obs.Event) {
	switch ev := e.(type) {
	case *obs.TxBegin:
		n := p.node(ev.Node)
		n.tx = append(n.tx, interval{
			start: int64(at), end: int64(at.Add(ev.Dur)),
			extra: ev.Frame.Kind.IsExtra(),
		})
	case *obs.FrameRx:
		p.addRx(at, ev.Node, ev.Frame)
	case *obs.FrameLoss:
		p.addRx(at, ev.Node, ev.Frame)
	case *obs.MACState:
		n := p.node(ev.Node)
		toIdle := ev.To == "idle"
		if !n.engaged && !toIdle {
			n.engaged = true
			n.busySince = int64(at)
		} else if n.engaged && toIdle {
			n.engaged = false
			n.busy = append(n.busy, interval{start: n.busySince, end: int64(at)})
		}
	}
}

// addRx records a reception interval ending at the observation time
// (FrameRx/FrameLoss fire when the frame has fully arrived).
func (p *Profiler) addRx(at sim.Time, node packet.NodeID, f *packet.Frame) {
	dur := f.TxDuration(p.cfg.BitRate)
	n := p.node(node)
	n.rx = append(n.rx, interval{
		start: int64(at.Add(-dur)), end: int64(at),
		extra: f.Kind.IsExtra(),
	})
}

// sweepEvent is one endpoint of the per-node coverage sweep.
type sweepEvent struct {
	t                             int64
	dTx, dTxEx, dRx, dRxEx, dBusy int
}

// acc accumulates classified nanoseconds.
type acc struct {
	tx, rx, wait, reclaimed, guard int64
}

func (a *acc) add(class int, d int64) {
	switch class {
	case 0:
		a.tx += d
	case 1:
		a.rx += d
	case 2:
		a.wait += d
	case 3:
		a.reclaimed += d
	default:
		a.guard += d
	}
}

// Finish clips the window to end, classifies every slot, writes the
// JSONL records, and returns the run summary. Per-slot lines are
// emitted only for slots with any non-guard time (an all-idle slot is
// implied); node and summary totals cover every slot either way.
func (p *Profiler) Finish(end sim.Time) (Summary, error) {
	if end > p.cfg.End {
		end = p.cfg.End
	}
	slotLen := int64(p.cfg.SlotLen)
	w0, w1 := int64(p.cfg.Start), int64(end)
	sum := Summary{Rec: "summary", Protocol: p.cfg.Protocol, SlotLenS: p.cfg.SlotLen.Seconds()}
	if slotLen <= 0 || w1 <= w0 {
		return sum, nil
	}
	// Align the window to whole slots: first boundary at or after Start,
	// last boundary at or before end.
	firstSlot := (w0 + slotLen - 1) / slotLen
	lastSlot := w1 / slotLen
	nSlots := lastSlot - firstSlot
	if nSlots <= 0 {
		return sum, nil
	}
	sum.Slots = nSlots
	w0, w1 = firstSlot*slotLen, lastSlot*slotLen

	bw := bufio.NewWriterSize(p.cfg.Writer, 1<<16)

	ids := make([]packet.NodeID, 0, len(p.nodes))
	for id := range p.nodes {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	sum.Nodes = len(ids)

	var werr error
	write := func(line []byte) []byte {
		if werr == nil {
			_, werr = bw.Write(line)
		}
		return line[:0]
	}
	var line []byte

	for _, id := range ids {
		n := p.nodes[id]
		if n.engaged {
			n.busy = append(n.busy, interval{start: n.busySince, end: w1})
			n.engaged = false
		}
		slots := p.classify(n, w0, w1, slotLen)
		var nt acc
		for i, a := range slots {
			nt.tx += a.tx
			nt.rx += a.rx
			nt.wait += a.wait
			nt.reclaimed += a.reclaimed
			nt.guard += a.guard
			if a.tx+a.rx+a.wait+a.reclaimed == 0 {
				continue
			}
			line = append(line, `{"rec":"slot","node":`...)
			line = strconv.AppendUint(line, uint64(id), 10)
			line = append(line, `,"slot":`...)
			line = strconv.AppendInt(line, firstSlot+int64(i), 10)
			line = write(append(a.appendJSON(line), "}\n"...))
		}
		line = append(line, `{"rec":"node","node":`...)
		line = strconv.AppendUint(line, uint64(id), 10)
		line = append(nt.appendJSON(line), `,"exploit":`...)
		line, _ = obs.AppendJSONFloat(line, ratio(nt.reclaimed, nt.wait))
		line = write(append(line, "}\n"...))
		sum.Tx += secs(nt.tx)
		sum.Rx += secs(nt.rx)
		sum.Wait += secs(nt.wait)
		sum.Reclaimed += secs(nt.reclaimed)
		sum.Guard += secs(nt.guard)
	}
	if sum.Reclaimed+sum.Wait > 0 {
		sum.Exploit = sum.Reclaimed / (sum.Reclaimed + sum.Wait)
	}
	write(sum.appendJSON(line))
	if err := bw.Flush(); err != nil && werr == nil {
		werr = err
	}
	return sum, werr
}

// classify sweeps one node's intervals over [w0, w1) and returns one
// accumulator per slot. Coverage counters make overlap harmless; the
// priority order is tx > rx > wait, with extra coverage promoting
// tx/rx time to reclaimed, and the remainder is guard.
func (p *Profiler) classify(n *nodeProf, w0, w1, slotLen int64) []acc {
	nSlots := (w1 - w0) / slotLen
	out := make([]acc, nSlots)

	evs := make([]sweepEvent, 0, 2*(len(n.tx)+len(n.rx)+len(n.busy))+int(nSlots)+1)
	addIv := func(iv interval, open, close sweepEvent) {
		s, e := iv.start, iv.end
		if s < w0 {
			s = w0
		}
		if e > w1 {
			e = w1
		}
		if s >= e {
			return
		}
		open.t, close.t = s, e
		evs = append(evs, open, close)
	}
	for _, iv := range n.tx {
		if iv.extra {
			addIv(iv, sweepEvent{dTx: 1, dTxEx: 1}, sweepEvent{dTx: -1, dTxEx: -1})
		} else {
			addIv(iv, sweepEvent{dTx: 1}, sweepEvent{dTx: -1})
		}
	}
	for _, iv := range n.rx {
		if iv.extra {
			addIv(iv, sweepEvent{dRx: 1, dRxEx: 1}, sweepEvent{dRx: -1, dRxEx: -1})
		} else {
			addIv(iv, sweepEvent{dRx: 1}, sweepEvent{dRx: -1})
		}
	}
	for _, iv := range n.busy {
		addIv(iv, sweepEvent{dBusy: 1}, sweepEvent{dBusy: -1})
	}
	// Slot boundaries are zero-delta events so no elementary segment
	// straddles two slots.
	for t := w0; t <= w1; t += slotLen {
		evs = append(evs, sweepEvent{t: t})
	}
	slices.SortFunc(evs, func(a, b sweepEvent) int { return cmp.Compare(a.t, b.t) })

	var tx, txEx, rx, rxEx, busy int
	prev := w0
	for _, e := range evs {
		if e.t > prev {
			class := 4 // guard
			switch {
			case tx > 0 && txEx > 0, rx > 0 && tx == 0 && rxEx > 0:
				class = 3 // reclaimed
			case tx > 0:
				class = 0
			case rx > 0:
				class = 1
			case busy > 0:
				class = 2
			}
			// The segment lies inside one slot by construction.
			out[(prev-w0)/slotLen].add(class, e.t-prev)
			prev = e.t
		}
		tx += e.dTx
		txEx += e.dTxEx
		rx += e.dRx
		rxEx += e.dRxEx
		busy += e.dBusy
	}
	return out
}

func secs(ns int64) float64 { return float64(ns) / 1e9 }

// Records are written by hand, as encoding/json renders SlotRecord,
// NodeRecord and Summary; every float is finite, so ok is always true.

var periodKeys = [...]string{`,"tx":`, `,"rx":`, `,"wait":`, `,"reclaimed":`, `,"guard":`}

// appendJSON appends the five period fields, in seconds.
func (a acc) appendJSON(b []byte) []byte {
	for i, ns := range [...]int64{a.tx, a.rx, a.wait, a.reclaimed, a.guard} {
		b = append(b, periodKeys[i]...)
		b = obs.AppendJSONSeconds(b, ns, secs(ns))
	}
	return b
}

// appendJSON appends the summary's JSON line.
func (s *Summary) appendJSON(b []byte) []byte {
	b = append(b, `{"rec":"summary","protocol":`...)
	b = obs.AppendJSONString(b, s.Protocol)
	b = append(b, `,"slot_len":`...)
	b, _ = obs.AppendJSONFloat(b, s.SlotLenS)
	b = append(b, `,"slots":`...)
	b = strconv.AppendInt(b, s.Slots, 10)
	b = append(b, `,"nodes":`...)
	b = strconv.AppendInt(b, int64(s.Nodes), 10)
	for i, v := range [...]float64{s.Tx, s.Rx, s.Wait, s.Reclaimed, s.Guard} {
		b = append(b, periodKeys[i]...)
		b, _ = obs.AppendJSONFloat(b, v)
	}
	b = append(b, `,"exploit":`...)
	b, _ = obs.AppendJSONFloat(b, s.Exploit)
	return append(b, "}\n"...)
}

func ratio(num, den int64) float64 {
	if num+den == 0 {
		return 0
	}
	return float64(num) / float64(num+den)
}
