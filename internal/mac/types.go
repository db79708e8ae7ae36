// Package mac provides the scaffolding every protocol in this repo is
// built on: slot arithmetic for the τmax+ω slotted channel, the one-hop
// propagation-delay table maintained from received timestamps (paper
// §4.3), a ledger of overheard negotiations used to predict neighbors'
// busy windows (paper §4.2/Figure 2), transmit queues, the Node core
// every MAC embeds (queue, overload gates, liveness, slot loop, retry
// round), and a Base engine on Node implementing the shared four-way
// RTS/CTS/Data/Ack handshake with protocol-specific hooks. Base also
// holds what the opportunistic protocols share — the §4.2 neighbour
// guard, extra-exchange frame and event helpers — and TwoHop adds the
// two-hop neighbour maintenance ROPA and CS-MAC carry.
//
// All four protocols of the paper's evaluation — EW-MAC, S-FAMA, ROPA,
// and CS-MAC — are implemented on this common base, mirroring the
// paper's methodology of rewriting every MAC model on the same slotted
// contention substrate ("we rewrite the MAC model based on CW-MAC",
// §5). That keeps the comparison about protocol mechanisms rather than
// implementation accidents.
package mac

import (
	"time"

	"ewmac/internal/obs"
	"ewmac/internal/packet"
	"ewmac/internal/phy"
)

// AppPacket is one application data unit handed to a MAC for delivery
// to a one-hop destination.
type AppPacket struct {
	// Dst is the next-hop destination.
	Dst packet.NodeID
	// Bits is the payload size in bits.
	Bits int
	// Origin is the node that generated the payload.
	Origin packet.NodeID
	// Seq is unique per origin.
	Seq uint32
	// GeneratedAt is the simulation time of payload creation (for
	// latency accounting).
	GeneratedAt time.Duration
	// High marks the packet for the two-class priority scheme: queued
	// ahead of normal traffic, exempt from admission shedding, never
	// shed first. Inert unless OverloadConfig.PriorityEvery is set.
	High bool
	// Deadline is the absolute simulation instant after which delivery
	// is worthless (0 = none). Enqueue stamps GeneratedAt + PacketTTL
	// when the overload layer is configured with a TTL; the DropDeadline
	// policy evicts packets past it.
	Deadline time.Duration
}

// Protocol is the interface the node host drives. Implementations also
// act as the modem's phy.Listener.
type Protocol interface {
	phy.Listener
	// Start arms the slot loop and initialization (Hello) behaviour.
	Start()
	// Enqueue accepts an outbound packet from the traffic/routing layer.
	Enqueue(p AppPacket)
	// QueueLen reports packets waiting (including one in flight).
	QueueLen() int
	// Counters exposes protocol-level statistics.
	Counters() Counters
	// Backpressure reports whether the admission gate is closed, for
	// closed-loop traffic sources.
	Backpressure() bool
	// Stranded counts queued packets whose next hop is dead.
	Stranded() int
}

// Counters aggregates protocol-level statistics for the metrics layer.
// PHY-level statistics (bits on air, collisions) live in phy.Stats.
type Counters struct {
	// Generated counts packets accepted via Enqueue.
	Generated uint64
	// DeliveredPackets / DeliveredBits count unique data packets
	// successfully received at this node as destination (primary and
	// extra exchanges combined).
	DeliveredPackets uint64
	DeliveredBits    uint64
	// ExtraDeliveredPackets counts the subset delivered through
	// extra/appended/stolen exchanges.
	ExtraDeliveredPackets uint64
	// DuplicatesRx counts retransmitted data received more than once.
	DuplicatesRx uint64
	// AckedPackets counts packets this node sent that were acknowledged.
	AckedPackets uint64
	// LatencySum accumulates generation→delivery latency over delivered
	// packets (measured at the receiver).
	LatencySum time.Duration
	// RTSSent / CTSSent count primary negotiation attempts.
	RTSSent uint64
	CTSSent uint64
	// ContentionFailures counts RTS rounds that ended without a CTS.
	ContentionFailures uint64
	// Retransmissions counts data packets re-sent after a failed round
	// (lost CTS, lost data, or lost ack).
	Retransmissions uint64
	// RetransmittedBits counts payload bits re-sent (overhead input).
	RetransmittedBits uint64
	// ExtraAttempts / ExtraGrants / ExtraCompletions trace the
	// opportunistic path: requests sent (EXR/RTA) or steals launched,
	// grants received (EXC), and extra data exchanges acknowledged.
	ExtraAttempts    uint64
	ExtraGrants      uint64
	ExtraCompletions uint64
	// MaintenanceBits counts dedicated neighbor-maintenance traffic
	// (Hello and NbrUpdate frames), an overhead input.
	MaintenanceBits uint64
	// Dropped counts packets abandoned by the MAC for any reason; the
	// Dropped* fields break it down by typed cause: MaxRetries
	// exhaustion, dead-peer purge, queue overflow rejecting the
	// newcomer, drop-oldest eviction, per-packet deadline expiry, and
	// admission-control load shedding.
	Dropped          uint64
	DroppedRetry     uint64
	DroppedDeadPeer  uint64
	DroppedQueueFull uint64
	DroppedOldest    uint64
	DroppedExpired   uint64
	DroppedShed      uint64
	// RetryDeferrals counts handshake retries postponed (not dropped)
	// because the node's retry budget was empty.
	RetryDeferrals uint64
	// SuspectMarks / DeadMarks / Resurrections / WatchdogResets trace
	// the liveness layer: peers demoted to suspect or dead, peers
	// restored by an overheard frame, and stuck-state force-resets.
	SuspectMarks   uint64
	DeadMarks      uint64
	Resurrections  uint64
	WatchdogResets uint64
	// Probes counts unicast delay-refresh probes sent (stale-table
	// recovery traffic; their bits are folded into MaintenanceBits).
	Probes uint64
	// ImpossibleRx counts received frames whose measured propagation
	// delay was physically impossible (clock drift poisoning); the
	// measurements were discarded rather than fed to the delay table.
	ImpossibleRx uint64
}

// Add returns the field-wise sum of two counter sets.
func (c Counters) Add(o Counters) Counters {
	return Counters{
		Generated:             c.Generated + o.Generated,
		DeliveredPackets:      c.DeliveredPackets + o.DeliveredPackets,
		DeliveredBits:         c.DeliveredBits + o.DeliveredBits,
		ExtraDeliveredPackets: c.ExtraDeliveredPackets + o.ExtraDeliveredPackets,
		DuplicatesRx:          c.DuplicatesRx + o.DuplicatesRx,
		AckedPackets:          c.AckedPackets + o.AckedPackets,
		LatencySum:            c.LatencySum + o.LatencySum,
		RTSSent:               c.RTSSent + o.RTSSent,
		CTSSent:               c.CTSSent + o.CTSSent,
		ContentionFailures:    c.ContentionFailures + o.ContentionFailures,
		Retransmissions:       c.Retransmissions + o.Retransmissions,
		RetransmittedBits:     c.RetransmittedBits + o.RetransmittedBits,
		ExtraAttempts:         c.ExtraAttempts + o.ExtraAttempts,
		ExtraGrants:           c.ExtraGrants + o.ExtraGrants,
		ExtraCompletions:      c.ExtraCompletions + o.ExtraCompletions,
		MaintenanceBits:       c.MaintenanceBits + o.MaintenanceBits,
		Dropped:               c.Dropped + o.Dropped,
		DroppedRetry:          c.DroppedRetry + o.DroppedRetry,
		DroppedDeadPeer:       c.DroppedDeadPeer + o.DroppedDeadPeer,
		DroppedQueueFull:      c.DroppedQueueFull + o.DroppedQueueFull,
		DroppedOldest:         c.DroppedOldest + o.DroppedOldest,
		DroppedExpired:        c.DroppedExpired + o.DroppedExpired,
		DroppedShed:           c.DroppedShed + o.DroppedShed,
		RetryDeferrals:        c.RetryDeferrals + o.RetryDeferrals,
		SuspectMarks:          c.SuspectMarks + o.SuspectMarks,
		DeadMarks:             c.DeadMarks + o.DeadMarks,
		Resurrections:         c.Resurrections + o.Resurrections,
		WatchdogResets:        c.WatchdogResets + o.WatchdogResets,
		Probes:                c.Probes + o.Probes,
		ImpossibleRx:          c.ImpossibleRx + o.ImpossibleRx,
	}
}

// CountDrop accounts one abandoned packet under the given typed reason
// (the obs.Drop* strings), keeping the per-cause breakdown in lockstep
// with the Dropped total.
func (c *Counters) CountDrop(reason string) {
	c.Dropped++
	switch reason {
	case obs.DropRetryExhausted:
		c.DroppedRetry++
	case obs.DropDeadPeer:
		c.DroppedDeadPeer++
	case obs.DropQueueFull:
		c.DroppedQueueFull++
	case obs.DropOldest:
		c.DroppedOldest++
	case obs.DropExpired:
		c.DroppedExpired++
	case obs.DropShed:
		c.DroppedShed++
	}
}

// MeanLatency returns the average generation→delivery latency.
func (c Counters) MeanLatency() time.Duration {
	if c.DeliveredPackets == 0 {
		return 0
	}
	return c.LatencySum / time.Duration(c.DeliveredPackets)
}
