// Package obs is the simulator's unified observability layer: a
// structured event bus threaded through the channel, PHY, MAC, and
// experiment layers, plus the consumers built on top of it — a
// trace-v2 JSONL exporter, a periodic time-series sampler (CSV), and a
// per-run report collector with a Prometheus-style text snapshot.
//
// Events are plain structs dispatched through the nil-checked Recorder
// interface. Every emission site guards with a nil test before
// constructing the event, so with observability disabled the hot path
// pays exactly one predictable branch and zero allocations. Recorders
// run synchronously, one event at a time and in event order, and must
// not re-enter the engine. They run on the simulation goroutine, unless
// a Stager (stage.go) replays them on an observer goroutine of their
// own; the producer then waits for them only when they fall more than
// two batches behind.
//
// With observability enabled the path is allocation-free too: emission
// sites call the per-type Emit helpers (emit.go), which lease a record
// from a per-type sync.Pool and deliver it to Record as a pointer
// (*FrameEmit, *Delivery, …). Ownership rule: the record is reclaimed
// the moment Record returns, so a recorder that keeps an event past
// its own Record call must copy the struct. Frame pointers inside
// events point at frames immutable since transmission and are safe to
// retain.
package obs

import (
	"time"

	"ewmac/internal/packet"
	"ewmac/internal/sim"
)

// Event is one structured observation. Tag returns the stable event
// name used as the "event" field of the trace-v2 JSONL schema and as
// the counter key in RunReport; tags are dotted layer.name identifiers
// and form the compatibility surface of the trace format.
type Event interface {
	Tag() string
}

// Recorder consumes events, one at a time and in event order, on the
// simulation goroutine or on a Stager's observer goroutine; Record must
// not schedule engine events or transmit.
type Recorder interface {
	Record(at sim.Time, e Event)
}

// RecorderFunc adapts a function to the Recorder interface.
type RecorderFunc func(at sim.Time, e Event)

// Record implements Recorder.
func (f RecorderFunc) Record(at sim.Time, e Event) { f(at, e) }

// multi fans one event out to several recorders in order.
type multi []Recorder

// Record implements Recorder.
func (m multi) Record(at sim.Time, e Event) {
	for _, r := range m {
		r.Record(at, e)
	}
}

// Multi combines recorders into one, dropping nils. It returns nil
// when every argument is nil, so the result can be stored directly in
// a nil-checked recorder field.
func Multi(recs ...Recorder) Recorder {
	var live multi
	for _, r := range recs {
		if r != nil {
			live = append(live, r)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	default:
		return live
	}
}

// ---- Channel events ----

// FrameEmit records one scheduled frame delivery at emission time: the
// channel computed a propagation delay and received level for the
// (src, dst) pair and scheduled the arrival.
type FrameEmit struct {
	Src, Dst packet.NodeID
	Frame    *packet.Frame
	Delay    time.Duration
	LevelDB  float64
}

// Tag implements Event.
func (FrameEmit) Tag() string { return "chan.emit" }

// ---- PHY events ----

// TxBegin records the start of a transmission at a modem.
type TxBegin struct {
	Node  packet.NodeID
	Frame *packet.Frame
	Dur   time.Duration
}

// Tag implements Event.
func (TxBegin) Tag() string { return "phy.tx" }

// FrameRx records one successfully decoded frame at a modem (whether
// or not the node is the destination).
type FrameRx struct {
	Node  packet.NodeID
	Frame *packet.Frame
}

// Tag implements Event.
func (FrameRx) Tag() string { return "phy.rx" }

// FrameLoss records a decodable frame that was not delivered, with the
// PHY's loss classification. ReasonCode carries the raw
// phy.LossReason value (obs cannot import phy); Reason is its string
// form, which is what the trace schema exposes.
type FrameLoss struct {
	Node       packet.NodeID
	Frame      *packet.Frame
	ReasonCode uint8
	Reason     string
}

// Tag implements Event.
func (FrameLoss) Tag() string { return "phy.loss" }

// ---- MAC events ----

// MACState records one primary-handshake role transition at a node.
// Roles are the mac.Role strings ("idle", "wait-cts", ...).
type MACState struct {
	Node     packet.NodeID
	From, To string
	Slot     int64
}

// Tag implements Event.
func (MACState) Tag() string { return "mac.state" }

// Contention outcomes.
const (
	// ContentionRTS: the node transmitted an RTS for Peer.
	ContentionRTS = "rts"
	// ContentionWon: the node's RTS was answered with a CTS.
	ContentionWon = "won"
	// ContentionLost: the node learned its target negotiated with
	// someone else (overheard RTS/CTS from the target).
	ContentionLost = "lost"
	// ContentionTimeout: no CTS arrived within the deadline.
	ContentionTimeout = "timeout"
	// ContentionGrant: the node, as receiver, answered an RTS with a CTS.
	ContentionGrant = "grant"
)

// Contention records one step of an RTS contention round. XID is the
// exchange lineage of the handshake the step belongs to (zero when the
// emitting protocol has no exchange in flight).
type Contention struct {
	Node    packet.NodeID
	Peer    packet.NodeID
	Outcome string
	Slot    int64
	XID     uint64
}

// Tag implements Event.
func (Contention) Tag() string { return "mac.contention" }

// SlotPeriod records a node entering one of the handshake periods of
// the paper's Figure 2 timeline, which partitions a four-way exchange
// into seven waiting/transmission periods:
//
//	I   sender sent RTS, waiting for the CTS slot
//	II  receiver sent CTS, waiting for data
//	III sender received CTS, waiting for its data slot
//	IV  data on air
//	V   sender finished data, waiting for the Ack slot
//	VI  receiver transmitting the Ack
//	VII exchange complete (Ack received / post-exchange)
//
// Together with the pairwise delay table these records reconstruct the
// exact slot timeline the extra-communication scheduler reasons about.
type SlotPeriod struct {
	Node   packet.NodeID
	Peer   packet.NodeID
	Period string // "I".."VII"
	Slot   int64
}

// Tag implements Event.
func (SlotPeriod) Tag() string { return "mac.period" }

// Delivery records one unique data payload accepted at its destination
// (the same instant mac.Counters.DeliveredPackets increments). XID is
// the lineage of the exchange that carried the payload.
type Delivery struct {
	Node    packet.NodeID
	Origin  packet.NodeID
	Seq     uint32
	Bits    int
	Latency time.Duration
	Extra   bool
	XID     uint64
}

// Tag implements Event.
func (Delivery) Tag() string { return "mac.deliver" }

// Extra-communication actions.
const (
	// ExtraRequest: an opportunistic request/steal went on air
	// (EXR, RTA, or StolenData).
	ExtraRequest = "request"
	// ExtraGrant: the negotiated node granted the request (EXC sent).
	ExtraGrant = "grant"
	// ExtraDeny: the opportunistic path was rejected; Reason says why.
	ExtraDeny = "deny"
	// ExtraAbort: an in-flight attempt was abandoned; Reason says why.
	ExtraAbort = "abort"
	// ExtraComplete: the extra exchange was acknowledged end to end.
	ExtraComplete = "complete"
)

// Extra records one step of an extra-communication exchange (EW-MAC
// EXR/EXC, ROPA appending, CS-MAC stealing). Reason is set on deny and
// abort actions and names the admission rule that fired — the signal
// for diagnosing a starved extra-communication path. XID is the extra
// exchange's own lineage (zero on pre-flight denials, before any frame
// existed); Parent, when nonzero, is the XID of the primary handshake
// whose waiting window the extra exchange exploits.
type Extra struct {
	Node   packet.NodeID
	Peer   packet.NodeID
	Action string
	Reason string
	XID    uint64
	Parent uint64
}

// Tag implements Event.
func (Extra) Tag() string { return "mac.extra" }

// Recovery actions.
const (
	// RecoverySuspect: consecutive handshake failures crossed the
	// suspect threshold for the peer.
	RecoverySuspect = "suspect"
	// RecoveryDead: the peer crossed the dead threshold; pending
	// traffic to it is purged and its delay-table entry quarantined.
	RecoveryDead = "dead"
	// RecoveryResurrect: a frame was overheard from a suspect/dead
	// peer, restoring it to alive.
	RecoveryResurrect = "resurrect"
	// RecoveryWatchdog: the node sat in a non-idle MAC state past the
	// delay-budget bound and was force-reset through the cold-restart
	// path.
	RecoveryWatchdog = "watchdog-reset"
)

// Recovery records one step of the MAC liveness/watchdog machinery: a
// peer transitioning between alive/suspect/dead, a resurrection on an
// overheard frame, or a stuck-state watchdog firing. Peer is the
// subject of liveness transitions and zero for watchdog resets; Detail
// carries the trigger (consecutive failure count, the stuck role, ...).
type Recovery struct {
	Node   packet.NodeID
	Peer   packet.NodeID
	Action string
	Detail string
}

// Tag implements Event.
func (Recovery) Tag() string { return "mac.recovery" }

// Packet drop reasons. Every packet the MAC abandons — including queue
// overflow, which historically never reached the event bus — is
// reported with one of these.
const (
	// DropRetryExhausted: the handshake failed MaxRetries times.
	DropRetryExhausted = "retry-exhausted"
	// DropDeadPeer: the packet's next hop was declared dead.
	DropDeadPeer = "dead-peer"
	// DropQueueFull: the bounded queue rejected or displaced the packet
	// on overflow (tail drop, or a priority insert displacing it).
	DropQueueFull = "queue-full"
	// DropOldest: the drop-oldest policy evicted the packet to admit a
	// newer one.
	DropOldest = "drop-oldest"
	// DropExpired: the packet outlived its per-packet deadline and was
	// lazily evicted.
	DropExpired = "deadline-expired"
	// DropShed: the admission gate refused the packet while occupancy
	// sat above the high-water mark.
	DropShed = "load-shed"
)

// PacketDrop records one queued application packet abandoned by the
// MAC with a typed reason, the moment mac.Counters.Dropped increments.
type PacketDrop struct {
	Node   packet.NodeID
	Peer   packet.NodeID
	Reason string
	Origin packet.NodeID
	Seq    uint32
}

// Tag implements Event.
func (PacketDrop) Tag() string { return "mac.drop" }

// Queue occupancy operations.
const (
	// QueuePush: a packet was accepted into the transmit queue.
	QueuePush = "push"
	// QueuePop: a packet left the queue for service (dequeue or
	// completion — drops are reported as PacketDrop, not here).
	QueuePop = "pop"
)

// QueueDepth records one transmit-queue occupancy change. Len is the
// occupancy after the operation; Sojourn is the packet's
// generation→dequeue time, set on pop only — together they give queue
// backlog and waiting-time distributions under load.
type QueueDepth struct {
	Node    packet.NodeID
	Len     int
	Op      string
	Sojourn time.Duration
}

// Tag implements Event.
func (QueueDepth) Tag() string { return "mac.queue" }

// Overload lifecycle actions.
const (
	// OverloadShedBegin: queue occupancy crossed the high-water mark;
	// the admission gate closed and begins shedding.
	OverloadShedBegin = "shed-begin"
	// OverloadShedEnd: occupancy drained to the low-water mark; the
	// gate reopened.
	OverloadShedEnd = "shed-end"
	// OverloadRetryDefer: a handshake retry was postponed because the
	// node's retry budget was empty.
	OverloadRetryDefer = "retry-defer"
)

// Overload records one step of the MAC overload-protection machinery:
// the admission gate opening or closing an overload episode, or the
// retry budget deferring a retry. Len is the queue occupancy at the
// instant of the action.
type Overload struct {
	Node   packet.NodeID
	Action string
	Len    int
}

// Tag implements Event.
func (Overload) Tag() string { return "mac.overload" }

// ---- Conformance events ----

// Oracle violation reasons. Each names the conformance property the
// streaming Equation-(1) verifier (internal/oracle.Streaming) found
// broken for one reception or loss.
const (
	// OracleNoEmission: a decode was claimed for a frame the channel
	// never delivered to that receiver.
	OracleNoEmission = "no-emission"
	// OracleHalfDuplex: a frame was decoded while its receiver was
	// transmitting.
	OracleHalfDuplex = "half-duplex"
	// OracleCapture: a frame was decoded despite an overlapping foreign
	// arrival within the capture margin (Equation (1) violation).
	OracleCapture = "capture"
	// OracleExtraGuard: a negotiated CTS/Data/Ack was lost to a
	// collision with an extra-communication frame (§4.2 guard breach).
	OracleExtraGuard = "extra-guard"
)

// OracleViolation records one conformance violation found by the
// always-on verification oracle: the named reception or loss at Node is
// inconsistent with channel-level ground truth. Frame is the violating
// frame (immutable, safe to retain); Detail names the conflicting
// transmission or arrival.
type OracleViolation struct {
	Node   packet.NodeID
	Frame  *packet.Frame
	Reason string
	Detail string
}

// Tag implements Event.
func (OracleViolation) Tag() string { return "oracle.violation" }

// ---- Fault events ----

// Fault lifecycle actions.
const (
	// FaultInject: the fault became active on the node.
	FaultInject = "inject"
	// FaultClear: the fault ended and the node recovered.
	FaultClear = "clear"
)

// Fault records one fault-injection lifecycle step: a scenario injector
// activated (inject) or lifted (clear) a fault on a node. Kind names
// the injector ("churn", "drift", "sync-loss", "outage",
// "interference", "delay-shift"); Detail carries the injector-specific
// magnitude (skew in ppm, level in dB, jump in meters, ...).
type Fault struct {
	Node   packet.NodeID
	Kind   string
	Action string
	Detail string
}

// Tag implements Event.
func (Fault) Tag() string { return "fault.event" }

// Invariant records a physical-consistency check that fired at a node:
// the protocol observed something impossible under its own model of
// the world (for example a frame whose timestamp arithmetic yields a
// negative propagation delay under clock drift). The node degrades
// gracefully — it skips the poisoned measurement — and this event is
// the audit trail.
type Invariant struct {
	Node   packet.NodeID
	Check  string
	Detail string
}

// Tag implements Event.
func (Invariant) Tag() string { return "mac.invariant" }

// ---- Engine events ----

// EngineSample is a periodic event-loop health sample, emitted by the
// time-series sampler rather than by the engine itself (the engine's
// hot loop stays observer-free; its counters are polled).
type EngineSample struct {
	QueueDepth int
	// EventsPerSec is the executed-event rate over the last sample
	// interval, per simulated second.
	EventsPerSec float64
	// VirtualWallRatio is simulated seconds per wall second over the
	// last sample interval (higher is faster).
	VirtualWallRatio float64
}

// Tag implements Event.
func (EngineSample) Tag() string { return "engine.sample" }
