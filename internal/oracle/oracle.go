// Package oracle independently verifies the paper's Equation (1): a
// packet counts as received only if, for its whole reception window,
// the receiver was not transmitting and no other neighbor's signal
// arrived. The oracle reconstructs every arrival interval at every
// receiver purely from channel-level emission records — it shares no
// code with the PHY's reception logic — and cross-examines the claimed
// receptions and losses as they stream past (see Streaming). The
// package's tests keep a brute-force batch form of the same checks as
// the reference Streaming must agree with.
package oracle

import (
	"fmt"
	"time"

	"ewmac/internal/packet"
	"ewmac/internal/sim"
)

// frameKey identifies one logical transmission.
type frameKey struct {
	src  packet.NodeID
	kind packet.Kind
	seq  uint32
	ts   time.Duration
}

func keyOf(f *packet.Frame) frameKey {
	return frameKey{src: f.Src, kind: f.Kind, seq: f.Seq, ts: f.Timestamp}
}

type span struct {
	start, end sim.Time
}

func (s span) overlaps(o span) bool { return s.start < o.end && o.start < s.end }

// arrival is one signal reaching one receiver.
type arrival struct {
	key     frameKey
	at      packet.NodeID
	span    span
	levelDB float64
	kind    packet.Kind
}

type keyString frameKey

func (k keyString) String() string {
	return fmt.Sprintf("%v %v seq=%d @%v", frameKey(k).src, frameKey(k).kind, frameKey(k).seq, frameKey(k).ts)
}
