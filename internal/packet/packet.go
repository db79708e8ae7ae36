// Package packet defines the frames exchanged by every MAC protocol in
// the simulator: the classic four-way handshake (RTS/CTS/Data/Ack), the
// EW-MAC extra-communication frames (EXR/EXC/EXData/EXAck), ROPA's
// appended-request frame (RTA), CS-MAC's stolen data frames, and the
// Hello/neighbor-maintenance frames used during initialization.
//
// Sizes are tracked in bits because the paper specifies them in bits
// (64-bit control packets, 1024–4096-bit data packets) and because
// overhead accounting (Figure 10) compares protocols by the extra bits
// their control traffic carries.
package packet

import (
	"fmt"
	"time"
)

// NodeID identifies a sensor. IDs are dense small integers assigned at
// deployment; the zero value is reserved as "nobody".
type NodeID uint16

// Nobody is the zero NodeID; it never names a real sensor.
const Nobody NodeID = 0

// Broadcast addresses every sensor in range.
const Broadcast NodeID = 0xFFFF

// String renders the ID for logs.
func (n NodeID) String() string {
	switch n {
	case Nobody:
		return "n∅"
	case Broadcast:
		return "n*"
	default:
		return fmt.Sprintf("n%d", uint16(n))
	}
}

// Kind enumerates frame types.
type Kind uint8

// Frame kinds. The EX* frames are EW-MAC's extra-communication frames;
// RTA is ROPA's appended request; StolenData is CS-MAC's
// direct-transmission data frame (distinguished from Data so metrics can
// attribute collisions caused by stealing).
const (
	KindHello Kind = iota + 1
	KindRTS
	KindCTS
	KindData
	KindAck
	KindEXR
	KindEXC
	KindEXData
	KindEXAck
	KindRTA
	KindStolenData
	KindNbrUpdate
	kindEnd // sentinel for validation
)

var kindNames = map[Kind]string{
	KindHello:      "Hello",
	KindRTS:        "RTS",
	KindCTS:        "CTS",
	KindData:       "Data",
	KindAck:        "Ack",
	KindEXR:        "EXR",
	KindEXC:        "EXC",
	KindEXData:     "EXData",
	KindEXAck:      "EXAck",
	KindRTA:        "RTA",
	KindStolenData: "StolenData",
	KindNbrUpdate:  "NbrUpdate",
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Valid reports whether k names a defined frame kind.
func (k Kind) Valid() bool { return k >= KindHello && k < kindEnd }

// IsControl reports whether the frame carries no application payload.
func (k Kind) IsControl() bool {
	switch k {
	case KindData, KindEXData, KindStolenData:
		return false
	default:
		return true
	}
}

// IsData reports whether the frame carries application payload.
func (k Kind) IsData() bool { return !k.IsControl() }

// IsExtra reports whether the frame belongs to an opportunistic
// (extra/appended/stolen) exchange rather than a primary negotiated one.
func (k Kind) IsExtra() bool {
	switch k {
	case KindEXR, KindEXC, KindEXData, KindEXAck, KindRTA, KindStolenData:
		return true
	default:
		return false
	}
}

// NeighborInfo is one entry of piggybacked neighbor state: the
// advertised neighbor and the advertiser's measured propagation delay
// to it. EW-MAC piggybacks only the pair under negotiation (one-hop
// info); CS-MAC and ROPA piggyback larger excerpts (two-hop info),
// which is where their extra overhead in Figure 10 comes from.
type NeighborInfo struct {
	ID    NodeID
	Delay time.Duration
}

// NeighborInfoBits is the wire size of one NeighborInfo entry: a 16-bit
// ID plus a 24-bit delay in microseconds (covers > 16 s).
const NeighborInfoBits = 40

// Frame is one over-the-air transmission. A single struct (rather than
// a type per kind) keeps the PHY and channel generic; protocol logic
// switches on Kind and reads only the fields meaningful for that kind.
//
// A frame is immutable from phy.Modem.Transmit on, Neighbors included:
// the sender, every receiver and every recorder hold the same pointer.
// A sender builds a fresh frame rather than edit one it has sent.
type Frame struct {
	// Kind is the frame type.
	Kind Kind
	// Src is the transmitting sensor.
	Src NodeID
	// Dst is the intended receiver (Broadcast for Hello/NbrUpdate).
	Dst NodeID
	// Seq disambiguates retransmissions of the same logical packet.
	Seq uint32
	// Timestamp is the sender's clock at the instant transmission
	// started; receivers subtract it from arrival time to maintain
	// pairwise propagation delays (paper §4.3).
	Timestamp time.Duration
	// PairDelay piggybacks the sender's measured propagation delay to
	// the frame's counterpart (e.g. a CTS carries τ between receiver
	// and the chosen sender), letting overhearers schedule around the
	// negotiated exchange (paper §4.2, Figure 4).
	PairDelay time.Duration
	// RP is the random priority carried by RTS frames; receivers pick
	// the contender with the highest value (paper §3.1).
	RP float64
	// DataBits announces (in RTS/CTS/EXR/EXC) or carries (in data
	// kinds) the payload length in bits.
	DataBits int
	// Neighbors is piggybacked neighbor state; its length contributes
	// to the frame's wire size.
	Neighbors []NeighborInfo
	// GrantAt is used by extra-communication grants (EXC): the absolute
	// simulation time at which the granted EXData should begin arriving
	// at the granter. The granter computes it from its own negotiated
	// schedule (Equations (5)/(6) of the paper); the requester derives
	// its send time by subtracting the pairwise propagation delay.
	GrantAt time.Duration
	// Origin is the sensor that generated the payload (for multi-hop
	// delivery accounting); meaningful on data kinds only.
	Origin NodeID
	// GeneratedAt is the simulation time the payload was created, used
	// for latency accounting; meaningful on data kinds only.
	GeneratedAt time.Duration

	// XID is simulator-side exchange-lineage metadata: every frame of
	// one handshake or extra exchange carries the same nonzero value, so
	// observability consumers can fold raw events into causal spans. It
	// does not contribute to Bits() — a real MAC would recover the
	// lineage from (src, dst, kind, seq), which the simulator shortcuts.
	XID uint64
}

// ControlBits is the base wire size of a control frame per the paper's
// Table 2 (64 bits), excluding piggybacked neighbor entries.
const ControlBits = 64

// DataHeaderBits is the MAC header carried by data frames.
const DataHeaderBits = 64

// Bits returns the frame's total wire size in bits.
func (f *Frame) Bits() int {
	n := len(f.Neighbors) * NeighborInfoBits
	if f.Kind.IsData() {
		return DataHeaderBits + f.DataBits + n
	}
	return ControlBits + n
}

// Duration returns the time to clock the frame out at the given bit
// rate.
func Duration(bits int, bitRate float64) time.Duration {
	if bitRate <= 0 || bits <= 0 {
		return 0
	}
	return time.Duration(float64(bits) / bitRate * float64(time.Second))
}

// TxDuration returns the frame's on-air duration at the given bit rate.
func (f *Frame) TxDuration(bitRate float64) time.Duration {
	return Duration(f.Bits(), bitRate)
}

// String renders a compact description for traces.
func (f *Frame) String() string {
	return fmt.Sprintf("%s %s→%s seq=%d bits=%d", f.Kind, f.Src, f.Dst, f.Seq, f.Bits())
}

// Validate reports structural problems that indicate protocol bugs.
func (f *Frame) Validate() error {
	switch {
	case !f.Kind.Valid():
		return fmt.Errorf("packet: invalid kind %d", f.Kind)
	case f.Src == Nobody:
		return fmt.Errorf("packet: %s has no source", f.Kind)
	case f.Src == Broadcast:
		return fmt.Errorf("packet: broadcast source on %s", f.Kind)
	case f.Dst == Nobody:
		return fmt.Errorf("packet: %s has no destination", f.Kind)
	case f.Kind.IsData() && f.DataBits <= 0:
		return fmt.Errorf("packet: data frame with %d payload bits", f.DataBits)
	case f.DataBits < 0:
		return fmt.Errorf("packet: negative payload %d", f.DataBits)
	}
	return nil
}
