package oracle

import (
	"fmt"
	"time"

	"ewmac/internal/packet"
	"ewmac/internal/phy"
	"ewmac/internal/sim"
)

// The batch oracle accumulates a whole run and cross-examines it
// afterwards in O(receptions × arrivals). It is the brute-force
// reference the streaming oracle is held to, in the fixtures here and
// on real runs (see agreement_test.go).

// Violation is one inconsistency the oracle found.
type Violation struct {
	Node   packet.NodeID
	Key    fmt.Stringer
	Reason string
}

func (v Violation) String() string {
	return fmt.Sprintf("node %v: %s", v.Node, v.Reason)
}

type reception struct {
	node packet.NodeID
	key  frameKey
	at   sim.Time
}

type loss struct {
	node   packet.NodeID
	key    frameKey
	kind   packet.Kind
	dst    packet.NodeID
	reason phy.LossReason
	at     sim.Time
}

// Oracle accumulates a run's channel-level ground truth.
type Oracle struct {
	// BitRate converts frame sizes to duration.
	BitRate float64
	// CaptureDB is the SINR margin above which a stronger frame
	// survives a weaker overlapping one. Match the model's threshold.
	CaptureDB float64

	arrivals   []arrival
	txSpans    map[packet.NodeID][]span
	receptions []reception
	losses     []loss
}

// New returns an oracle for the given PHY parameters.
func New(bitRate, captureDB float64) *Oracle {
	return &Oracle{
		BitRate:   bitRate,
		CaptureDB: captureDB,
		txSpans:   make(map[packet.NodeID][]span),
	}
}

// RecordEmission logs one scheduled delivery (the chan.emit event, at
// emission time). The sender's own transmission span comes from
// RecordTx.
func (o *Oracle) RecordEmission(now sim.Time, src, dst packet.NodeID, f *packet.Frame, delay time.Duration, levelDB float64) {
	dur := f.TxDuration(o.BitRate)
	o.arrivals = append(o.arrivals, arrival{
		key:     keyOf(f),
		at:      dst,
		span:    span{now.Add(delay), now.Add(delay + dur)},
		levelDB: levelDB,
		kind:    f.Kind,
	})
}

// RecordTx logs one transmission span at node (the phy.tx event), so
// every transmission is checked for half-duplex, retransmissions that
// reuse a frame key included. An exact repeat of the node's previous
// span is suppressed, as in Streaming.RecordTx, so fixtures that record
// one span per receiver of a broadcast stay comparable.
func (o *Oracle) RecordTx(now sim.Time, node packet.NodeID, dur time.Duration) {
	sp := span{now, now.Add(dur)}
	spans := o.txSpans[node]
	if n := len(spans); n > 0 && spans[n-1] == sp {
		return
	}
	o.txSpans[node] = append(spans, sp)
}

// RecordReception logs a claimed successful decode (the phy.rx event;
// now is the decode instant = arrival end).
func (o *Oracle) RecordReception(now sim.Time, node packet.NodeID, f *packet.Frame) {
	o.receptions = append(o.receptions, reception{node: node, key: keyOf(f), at: now})
}

// RecordLoss logs a reported loss of a decodable frame.
func (o *Oracle) RecordLoss(now sim.Time, node packet.NodeID, f *packet.Frame, reason phy.LossReason) {
	o.losses = append(o.losses, loss{
		node: node, key: keyOf(f), kind: f.Kind, dst: f.Dst, reason: reason, at: now,
	})
}

// Receptions reports how many successful decodes were recorded.
func (o *Oracle) Receptions() int { return len(o.receptions) }

// Losses reports how many losses were recorded.
func (o *Oracle) Losses() int { return len(o.losses) }

func (o *Oracle) findArrival(node packet.NodeID, k frameKey) (arrival, bool) {
	for _, a := range o.arrivals {
		if a.at == node && a.key == k {
			return a, true
		}
	}
	return arrival{}, false
}

// Verify checks Equation (1) for every claimed reception: during the
// frame's reception window the receiver transmitted nothing, and no
// comparable-power foreign signal overlapped it.
func (o *Oracle) Verify() []Violation {
	var out []Violation
	for _, r := range o.receptions {
		a, ok := o.findArrival(r.node, r.key)
		if !ok {
			out = append(out, Violation{r.node, keyString(r.key),
				fmt.Sprintf("reception of %v with no matching channel emission", keyString(r.key))})
			continue
		}
		for _, tx := range o.txSpans[r.node] {
			if tx.overlaps(a.span) {
				out = append(out, Violation{r.node, keyString(r.key),
					fmt.Sprintf("decoded %v while transmitting (half-duplex violation)", keyString(r.key))})
			}
		}
		for _, other := range o.arrivals {
			if other.at != r.node || other.key == a.key {
				continue
			}
			if !other.span.overlaps(a.span) {
				continue
			}
			if other.levelDB >= a.levelDB-o.CaptureDB {
				out = append(out, Violation{r.node, keyString(r.key),
					fmt.Sprintf("decoded %v despite overlapping %v within the capture margin (Equation (1) violation)",
						keyString(r.key), keyString(other.key))})
			}
		}
	}
	return out
}

// VerifyExtraSafety checks the paper's §4.2 guarantee: no negotiated
// frame (CTS, Data, or Ack) lost at its intended destination may have
// been corrupted by an overlapping extra-communication frame. RTS
// contention is explicitly exempt ("we do not assure that there is no
// collision between RTS packets", §4).
func (o *Oracle) VerifyExtraSafety() []Violation {
	var out []Violation
	for _, l := range o.losses {
		if l.reason != phy.LossCollision || l.dst != l.node {
			continue
		}
		switch l.kind {
		case packet.KindCTS, packet.KindData, packet.KindAck:
		default:
			continue
		}
		victim, ok := o.findArrival(l.node, l.key)
		if !ok {
			continue
		}
		for _, other := range o.arrivals {
			if other.at != l.node || other.key == victim.key {
				continue
			}
			if !other.span.overlaps(victim.span) || !other.kind.IsExtra() {
				continue
			}
			out = append(out, Violation{l.node, keyString(l.key),
				fmt.Sprintf("negotiated %v corrupted by extra frame %v (guard breach)",
					keyString(l.key), keyString(other.key))})
		}
	}
	return out
}
