package mac

import (
	"fmt"
	"math"
	"slices"
	"time"

	"ewmac/internal/obs"
	"ewmac/internal/packet"
	"ewmac/internal/phy"
	"ewmac/internal/sim"
)

// Node is the per-node core every MAC in this repo embeds by value,
// whatever its channel-access discipline: the validated config, the
// node's RNG stream, the transmit queue with its admission gate and
// retry budget, the counters, delivery dedupe, exchange-lineage IDs,
// per-peer liveness, the watchdog's accounting, the drift-aware slot
// loop, and the retry round (attempts, contention window, backoff).
// Base builds the four-way handshake on it; S-ALOHA its Data→Ack loop.
type Node struct {
	cfg      Config
	rng      *sim.RNG
	queue    Queue
	gate     AdmissionGate
	bucket   RetryBucket
	counters Counters
	seq      uint32
	// xidSeq allocates exchange-lineage IDs.
	xidSeq uint64
	// seen dedupes retransmitted payloads: origin<<32|seq.
	seen map[uint64]struct{}

	// Liveness: consecutive failed rounds per peer and the resulting
	// verdict, indexed by NodeID. Only a hardened node allocates it, at
	// its first failed round, sized to cfg.MaxID; it grows should a
	// larger ID fail. failNoun names a failed round in recovery
	// details; onVerdict, when set, sees every suspect, dead and
	// resurrect transition (Base flags delay-table entries and forwards
	// to a PeerWatcher hook).
	peers     []peerLiveness
	failNoun  string
	onVerdict func(peer packet.NodeID, st PeerState)

	// Retry round: the packet of the current (or last) round, its failed
	// rounds so far, the contention window, and the backoff slots left.
	cur         AppPacket
	attempts    int
	cw          int
	backoffLeft int

	// Slot loop: onSlot runs at every local-clock slot boundary. Only
	// one slot event is ever pending: Start arms the first, and each
	// tick arms the next. nextSlot is the slot that event serves, and
	// tickFn is tick bound once in Init, so re-arming allocates nothing.
	started  bool
	nextSlot int64
	onSlot   func(slot int64)
	tickFn   func()
}

// Init validates cfg, fills its defaults, and readies the node. The RNG
// stream is "<stream>/<id>"; failNoun names a failed round in recovery
// details ("ack timeouts"); onSlot runs at every slot boundary once
// Start arms the loop. The node must not be copied afterwards: the
// queue's hooks point back at it.
func (n *Node) Init(cfg Config, stream, failNoun string, onSlot func(slot int64)) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	cfg.applyDefaults()
	*n = Node{
		cfg:      cfg,
		rng:      cfg.Engine.Stream(stream, int(cfg.ID)),
		gate:     NewAdmissionGate(cfg),
		bucket:   NewRetryBucket(cfg),
		seen:     make(map[uint64]struct{}),
		failNoun: failNoun,
		cw:       cwMin,
		onSlot:   onSlot,
	}
	n.tickFn = n.tick
	n.queue = NewQueue(cfg,
		func() time.Duration { return cfg.Engine.Now().Duration() },
		n.dropPacket, n.queueEvent)
	return nil
}

// Accessors used by protocol implementations and tests.

// ID returns the node ID.
func (n *Node) ID() packet.NodeID { return n.cfg.ID }

// Engine returns the simulation engine.
func (n *Node) Engine() *sim.Engine { return n.cfg.Engine }

// Modem returns the PHY.
func (n *Node) Modem() *phy.Modem { return n.cfg.Modem }

// Slots returns the slot geometry.
func (n *Node) Slots() SlotConfig { return n.cfg.Slots }

// IsSink reports whether the node is a pure receiver.
func (n *Node) IsSink() bool { return n.cfg.IsSink }

// Hardened reports whether the fault-hardening layer is armed (see
// Config.Hardened).
func (n *Node) Hardened() bool { return n.cfg.Hardened }

// Queue returns the transmit queue.
func (n *Node) Queue() *Queue { return &n.queue }

// Counters implements Protocol.
func (n *Node) Counters() Counters { return n.counters }

// CountersRef gives protocol code mutable access to the counters.
func (n *Node) CountersRef() *Counters { return &n.counters }

// QueueLen implements Protocol.
func (n *Node) QueueLen() int { return n.queue.Len() }

// Observing reports whether an observability recorder is attached.
// Emission sites use it to skip event construction entirely when
// observability is off.
func (n *Node) Observing() bool { return n.cfg.Recorder != nil }

// RecNow returns the recorder and current instant, shaped so emission
// sites read obs.X{...}.Emit(n.RecNow()) and go through the pooled,
// non-boxing record path. The recorder may be nil; Emit drops the
// event without constructing a record.
func (n *Node) RecNow() (obs.Recorder, sim.Time) {
	return n.cfg.Recorder, n.cfg.Engine.Now()
}

// NewXID allocates a fresh exchange-lineage ID, unique across the run:
// the high half is the node, the low half a per-node counter. It draws
// no randomness, so allocating (or not) never shifts the RNG streams
// behind the determinism guarantees.
func (n *Node) NewXID() uint64 {
	n.xidSeq++
	return uint64(n.cfg.ID)<<32 | n.xidSeq
}

// DataTx returns the on-air time of a data frame carrying bits payload.
func (n *Node) DataTx(bits int) time.Duration {
	return packet.Duration(packet.DataHeaderBits+bits, n.cfg.BitRate)
}

// LocalNow returns the node's current local clock reading as a
// sim.Time (identical to engine time under a nil Clock).
func (n *Node) LocalNow() sim.Time {
	now := n.cfg.Engine.Now()
	if n.cfg.Clock == nil {
		return now
	}
	return sim.At(n.cfg.Clock.Local(now))
}

// ScheduleClamped schedules fn at t, clamped to now if t is already
// past. Protocol timers computed from received frame timestamps must
// use this instead of Engine.ScheduleAt: under injected clock
// drift a peer's stamp can place a deadline behind the present, and
// the graceful degradation is a timer that fires at once, not a
// panicking engine.
func (n *Node) ScheduleClamped(t sim.Time, prio sim.Priority, fn func()) {
	if now := n.cfg.Engine.Now(); t.Before(now) {
		t = now
	}
	n.cfg.Engine.ScheduleAt(t, prio, fn)
}

// ---- Slot loop ----

// Start implements Protocol: it arms the slot loop at the first
// boundary at or after now. Embedders with start-up duties of their own
// shadow it and call it last.
func (n *Node) Start() {
	if n.started {
		return
	}
	n.started = true
	now := n.cfg.Engine.Now()
	n.nextSlot = n.cfg.Slots.SlotAt(now)
	if n.cfg.Slots.StartOf(n.nextSlot) != now {
		n.nextSlot++
	}
	n.scheduleSlot()
}

// tick runs the armed slot boundary and arms the next one.
func (n *Node) tick() {
	n.onSlot(n.nextSlot)
	n.nextSlot++
	n.scheduleSlot()
}

// scheduleSlot arms the tick for nextSlot's boundary.
func (n *Node) scheduleSlot() {
	at := n.cfg.Slots.StartOf(n.nextSlot)
	if n.cfg.Clock == nil {
		n.cfg.SlotLane.Push(at, n.cfg.Engine.Reserve(1), n.tickFn)
		return
	}
	// The node fires the boundary where its *local* clock claims slot
	// start is; drift shifts it relative to the true grid. A clock
	// corrected backwards can map the boundary into the past — the node
	// is simply late, not entitled to time travel. A clock that ran more
	// than a slot ahead (a large initial offset, or a correction after a
	// long sync loss) fires the slot it now shows, once, instead of
	// replaying every boundary it slept through at this one instant.
	at = n.cfg.Clock.TrueTime(at.Duration())
	if now := n.cfg.Engine.Now(); !at.After(now) {
		n.nextSlot = max(n.nextSlot, n.cfg.Slots.SlotAt(n.LocalNow()))
		at = now
	}
	n.cfg.Engine.ScheduleAt(at, sim.PriorityMAC, n.tickFn)
}

// Restart cold-starts the node's shared soft state after a
// crash/recovery cycle: the in-flight pin, the retry round and the
// liveness history are dropped. The transmit queue, delivered-payload
// dedupe set, and counters survive: they model the application buffer
// and the metrics plane, not the MAC's volatile state. Embedders shadow
// it to drop their own state too.
func (n *Node) Restart() {
	n.queue.UnlockHead()
	n.attempts = 0
	n.backoffLeft = 0
	n.cw = cwMin
	// A cold-started node has forgotten its liveness history too: every
	// peer is presumed alive until it fails again.
	clear(n.peers)
}

// ---- Queue and overload ----

// Enqueue implements Protocol.
func (n *Node) Enqueue(p AppPacket) {
	if p.Origin == packet.Nobody {
		p.Origin = n.cfg.ID
	}
	if p.Seq == 0 {
		n.seq++
		p.Seq = n.seq
	}
	// Every offered packet counts as generated — it is real demand —
	// whether it queues or is refused with a typed drop below.
	n.counters.Generated++
	if n.peerState(p.Dst) == PeerDead {
		// Never queue up behind a corpse.
		n.dropPacket(p, obs.DropDeadPeer)
		return
	}
	if ttl := n.cfg.Overload.PacketTTL; ttl > 0 && p.Deadline == 0 {
		p.Deadline = p.GeneratedAt + ttl
	}
	if n.gate.Enabled() && !(n.cfg.Overload.twoClass() && p.High) {
		if n.gateClosed() {
			n.dropPacket(p, obs.DropShed)
			return
		}
	}
	if !n.queue.Push(p) {
		n.dropPacket(p, obs.DropQueueFull)
	}
}

// Backpressure implements Protocol: it reports whether the admission
// gate is currently closed, re-evaluated against live occupancy.
// Closed-loop traffic generators consult it to throttle offered load at
// the source; always false when admission control is not configured.
func (n *Node) Backpressure() bool {
	return n.gate.Enabled() && n.gateClosed()
}

// gateClosed re-evaluates the admission gate, recording a shed window
// opening or closing.
func (n *Node) gateClosed() bool {
	closed, changed := n.gate.Update(n.queue.Len())
	if changed {
		if closed {
			n.emitOverload(obs.OverloadShedBegin)
		} else {
			n.emitOverload(obs.OverloadShedEnd)
		}
	}
	return closed
}

// emitOverload records one overload-protection lifecycle step.
func (n *Node) emitOverload(action string) {
	if r := n.cfg.Recorder; r != nil {
		obs.Overload{Node: n.cfg.ID, Action: action, Len: n.queue.Len()}.Emit(r, n.cfg.Engine.Now())
	}
}

// queueEvent observes transmit-queue occupancy changes (the Queue's
// OnEvent hook): depth after each push/pop, plus the serviced packet's
// generation→dequeue sojourn on pop.
func (n *Node) queueEvent(pushed bool, p AppPacket) {
	r := n.cfg.Recorder
	if r == nil {
		return
	}
	now := n.cfg.Engine.Now()
	ev := obs.QueueDepth{Node: n.cfg.ID, Len: n.queue.Len(), Op: obs.QueuePush}
	if !pushed {
		ev.Op = obs.QueuePop
		ev.Sojourn = now.Duration() - p.GeneratedAt
	}
	ev.Emit(r, now)
}

// dropPacket accounts one abandoned packet under the given typed
// reason. It doubles as the Queue's OnDrop hook, so policy evictions
// (expiry, drop-oldest, priority displacement) land here too.
func (n *Node) dropPacket(p AppPacket, reason string) {
	n.counters.CountDrop(reason)
	if n.Observing() {
		obs.PacketDrop{
			Node: n.cfg.ID, Peer: p.Dst, Reason: reason,
			Origin: p.Origin, Seq: p.Seq,
		}.Emit(n.RecNow())
	}
}

// ---- Retry round ----

// NextHead returns the queue head a new round would serve. A head bound
// for a dead peer is abandoned with a typed drop instead of burning
// rounds into a void (ok false). When the backlog was reshuffled
// between failed rounds — a priority insert or a deadline eviction
// changed the head — the failure history belongs to the old head, not
// this packet, and is cleared. fresh reports that the head's wait
// starts now: the queue is empty, the head was dropped, or it changed.
func (n *Node) NextHead() (head AppPacket, ok, fresh bool) {
	head, ok = n.queue.Peek()
	if !ok {
		return head, false, true
	}
	if n.peerState(head.Dst) == PeerDead {
		n.queue.Pop()
		n.dropPacket(head, obs.DropDeadPeer)
		return head, false, true
	}
	if n.attempts > 0 &&
		(n.cfg.Overload.twoClass() || n.cfg.Overload.Policy == DropDeadline) &&
		(head.Origin != n.cur.Origin || head.Seq != n.cur.Seq) {
		n.attempts = 0
		return head, true, true
	}
	return head, true, false
}

// HoldOff reports whether the node must stay silent this slot: it is
// counting down its backoff, or the round would be a retry and the
// retry budget is empty. A deferred retry waits for the lazy refill
// instead of adding the node to a fleet-wide retry storm; first
// attempts are never gated.
func (n *Node) HoldOff(slot int64) bool {
	if n.backoffLeft > 0 {
		n.backoffLeft--
		return true
	}
	if n.attempts > 0 && !n.bucket.Allow(slot) {
		n.counters.RetryDeferrals++
		n.emitOverload(obs.OverloadRetryDefer)
		return true
	}
	return false
}

// BeginRound records head as the packet of the round just launched and
// pins it in flight: no shedding scan touches it until the round
// resolves.
func (n *Node) BeginRound(head AppPacket) {
	n.queue.LockHead()
	n.cur = head
}

// CompleteRound retires the acknowledged head and resets the retry
// round.
func (n *Node) CompleteRound() {
	n.queue.Pop()
	n.counters.AckedPackets++
	n.attempts = 0
	n.cw = cwMin
}

// FailRound closes a failed round for head (has is false when no packet
// was in flight). The head is released for shedding again and the
// failure is charged to its peer, which may kill the peer and purge its
// traffic, or else to the retry limit, which drops the head once
// MaxRetries rounds have failed. Either way the node then backs off
// binary-exponentially. reset reports that the head's failure history
// was cleared because the head left the queue.
func (n *Node) FailRound(head AppPacket, has bool) (reset bool) {
	n.queue.UnlockHead()
	n.attempts++
	if has && n.noteFailure(head.Dst) {
		// This failure just killed the peer; the head (and everything
		// else queued to it) was purged with a typed dead-peer drop.
		n.attempts = 0
		reset = true
	} else if n.cfg.MaxRetries > 0 && n.attempts >= n.cfg.MaxRetries {
		if p, ok := n.queue.Pop(); ok {
			n.dropPacket(p, obs.DropRetryExhausted)
		}
		n.attempts = 0
		reset = true
	}
	n.backoffLeft = 1 + n.rng.Intn(n.cw)
	if n.cw < cwMax {
		n.cw *= 2
		if n.cw > cwMax {
			n.cw = cwMax
		}
	}
	return reset
}

// ---- Delivery ----

// DeliverData counts a received payload exactly once per (origin, seq);
// extra marks delivery through an extra exchange (EXData, StolenData).
func (n *Node) DeliverData(f *packet.Frame, extra bool) {
	key := uint64(f.Origin)<<32 | uint64(f.Seq)
	if _, dup := n.seen[key]; dup {
		n.counters.DuplicatesRx++
		return
	}
	n.seen[key] = struct{}{}
	n.counters.DeliveredPackets++
	n.counters.DeliveredBits += uint64(f.DataBits)
	if extra {
		n.counters.ExtraDeliveredPackets++
	}
	latency := n.cfg.Engine.Now().Duration() - f.GeneratedAt
	n.counters.LatencySum += latency
	if n.Observing() {
		obs.Delivery{
			Node: n.cfg.ID, Origin: f.Origin, Seq: f.Seq,
			Bits: f.DataBits, Latency: latency, Extra: extra, XID: f.XID,
		}.Emit(n.RecNow())
	}
}

// ---- Liveness ----

// Stranded implements Protocol: it counts queued packets whose next hop
// is currently dead — traffic the recovery layer has neither delivered
// nor dropped with a typed reason. A correctly closing recovery loop
// keeps this at zero.
func (n *Node) Stranded() int {
	if !n.cfg.Hardened {
		return 0
	}
	c := 0
	for _, p := range n.queue.Items() {
		if n.peerState(p.Dst) == PeerDead {
			c++
		}
	}
	return c
}

// noteFailure records one failed round toward peer, walking it through
// suspect and dead. It returns true when this failure just killed the
// peer — every packet queued to it, the caller's head included, was
// dropped with a typed dead-peer reason.
func (n *Node) noteFailure(peer packet.NodeID) bool {
	if !n.cfg.Hardened || peer == packet.Nobody || peer == packet.Broadcast {
		return false
	}
	if int(peer) >= len(n.peers) {
		size := max(int(peer), int(n.cfg.MaxID)) + 1
		n.peers = slices.Grow(n.peers, size-len(n.peers))[:size]
	}
	pl := &n.peers[peer]
	if pl.fails < math.MaxUint8 {
		pl.fails++
	}
	c, st := int(pl.fails), pl.state
	if st == PeerAlive && c >= suspectAfter {
		st = PeerSuspect
		pl.state = st
		n.counters.SuspectMarks++
		n.emitVerdict(peer, obs.RecoverySuspect, c)
		n.verdict(peer, st)
	}
	if st != PeerDead && c >= deadAfter {
		pl.state = PeerDead
		n.counters.DeadMarks++
		n.emitVerdict(peer, obs.RecoveryDead, c)
		for i := 0; i < n.queue.Len(); {
			p := n.queue.Items()[i]
			if p.Dst != peer {
				i++
				continue
			}
			n.queue.RemoveAt(i)
			n.dropPacket(p, obs.DropDeadPeer)
		}
		n.verdict(peer, PeerDead)
		return true
	}
	return false
}

// NoteAlive clears the failure history for peer on any decoded frame
// from it, resurrecting a suspect/dead peer.
func (n *Node) NoteAlive(peer packet.NodeID) {
	if int(peer) >= len(n.peers) {
		return
	}
	st := n.peers[peer].state
	n.peers[peer] = peerLiveness{}
	if st == PeerDead {
		n.counters.Resurrections++
		n.emitVerdict(peer, obs.RecoveryResurrect, 0)
		n.verdict(peer, PeerAlive)
	}
}

// peerState is peer's liveness verdict; an unheard-of peer is alive.
func (n *Node) peerState(peer packet.NodeID) PeerState {
	if int(peer) >= len(n.peers) {
		return PeerAlive
	}
	return n.peers[peer].state
}

// verdict hands one liveness transition to onVerdict, if set.
func (n *Node) verdict(peer packet.NodeID, st PeerState) {
	if n.onVerdict != nil {
		n.onVerdict(peer, st)
	}
}

// emitVerdict records one liveness transition; fails is the
// consecutive-failure count behind a suspect or dead verdict, zero for
// a resurrection.
func (n *Node) emitVerdict(peer packet.NodeID, action string, fails int) {
	if !n.Observing() {
		return
	}
	detail := "frame overheard from dead peer"
	if fails > 0 {
		detail = fmt.Sprintf("%d consecutive %s", fails, n.failNoun)
	}
	obs.Recovery{Node: n.cfg.ID, Peer: peer, Action: action, Detail: detail}.Emit(n.RecNow())
}

// WatchdogTripped is the stuck-state watchdog: a node that has spent
// stuck slots in state, past watchdogFactor exchanges of exchange slots
// each, is counted and recorded as a watchdog reset and the caller must
// cold-restart it. Always false unless the node is hardened; the normal
// timeout paths should fire first, so this is the backstop against
// scheduling pathologies under injected drift.
func (n *Node) WatchdogTripped(state string, stuck, exchange int64) bool {
	if !n.cfg.Hardened {
		return false
	}
	bound := watchdogFactor * exchange
	if stuck <= bound {
		return false
	}
	n.counters.WatchdogResets++
	if n.Observing() {
		obs.Recovery{
			Node: n.cfg.ID, Action: obs.RecoveryWatchdog,
			Detail: fmt.Sprintf("stuck in %s for %d slots (bound %d)", state, stuck, bound),
		}.Emit(n.RecNow())
	}
	return true
}
