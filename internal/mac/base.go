package mac

import (
	"errors"
	"fmt"
	"time"

	"ewmac/internal/obs"
	"ewmac/internal/packet"
	"ewmac/internal/phy"
	"ewmac/internal/sim"
)

// Role is the node's position in its own primary handshake.
type Role uint8

// Primary handshake roles (the state-transfer diagram of Figure 3,
// with the "quiet" condition derived from the ledger instead of being
// a distinct state, and the extra-communication states delegated to
// protocol hooks).
const (
	// RoleIdle: no handshake in progress.
	RoleIdle Role = iota + 1
	// RoleWaitCTS: sent an RTS, waiting for the CTS slot.
	RoleWaitCTS
	// RoleSendData: negotiated as sender; data goes out at DataSlot.
	RoleSendData
	// RoleWaitAck: data sent, waiting for the Ack slot.
	RoleWaitAck
	// RoleWaitData: granted a CTS, waiting to receive data.
	RoleWaitData
)

// String implements fmt.Stringer.
func (r Role) String() string {
	switch r {
	case RoleIdle:
		return "idle"
	case RoleWaitCTS:
		return "wait-cts"
	case RoleSendData:
		return "send-data"
	case RoleWaitAck:
		return "wait-ack"
	case RoleWaitData:
		return "wait-data"
	default:
		return fmt.Sprintf("Role(%d)", uint8(r))
	}
}

// Hooks customize the shared engine per protocol. All methods run on
// the simulation goroutine. Base itself implements every hook with the
// S-FAMA behaviour (first arrival wins, everything else a no-op), so a
// protocol embedding *Base overrides only the hooks it changes.
type Hooks interface {
	// PickWinner chooses among RTS frames received in one slot
	// (S-FAMA: first arrival; EW-MAC: highest random priority).
	PickWinner(cands []*packet.Frame) *packet.Frame
	// Piggyback may attach neighbor info to an outgoing control frame
	// (CS-MAC/ROPA two-hop state; EW-MAC pair info).
	Piggyback(f *packet.Frame)
	// OnSlotStart runs at each slot boundary after base duties.
	OnSlotStart(slot int64)
	// OnContentionLost fires when this node, in RoleWaitCTS toward
	// cause.Src, learns its target negotiated with someone else
	// (cause is the overheard RTS or CTS from the target). EW-MAC
	// launches its extra-communication request here.
	OnContentionLost(cause *packet.Frame)
	// OnNegotiated fires when this node's RTS is answered (cts is the
	// received CTS). ROPA grants pending appended requests here.
	OnNegotiated(cts *packet.Frame)
	// OnOverheard sees every decoded frame not addressed to this node,
	// after base bookkeeping (table, ledger).
	OnOverheard(f *packet.Frame)
	// OnExtraFrame handles extra-communication frames addressed to
	// this node (EXR, EXC, EXData, EXAck, RTA, StolenData).
	OnExtraFrame(f *packet.Frame)
	// OnRestart fires when the node cold-starts after a crash/recovery
	// cycle: protocol-private exchange state must be dropped, since the
	// node has forgotten every negotiation it was party to.
	OnRestart()
}

// Config assembles a Base.
type Config struct {
	ID     packet.NodeID
	Engine *sim.Engine
	Modem  *phy.Modem
	Slots  SlotConfig
	// MaxID is the deployment's largest node ID; the neighbour table is
	// sized to it once (it still grows should a larger ID be heard).
	MaxID packet.NodeID
	// BitRate is the shared modem bit rate (bits/s).
	BitRate float64
	// IsSink marks pure receivers.
	IsSink bool
	// QueueMax bounds the transmit queue (0 = unbounded).
	QueueMax int
	// MaxRetries drops a packet after this many failed rounds
	// (0 = retry forever).
	MaxRetries int
	// EnableHello broadcasts a Hello at a random instant inside
	// HelloWindow so neighbors learn pairwise delays (paper §4.3).
	EnableHello bool
	HelloWindow time.Duration
	// LenientGrant lets a receiver answer an RTS addressed to it even
	// when it overheard other (unconfirmed) RTS attempts in the same
	// contention slot. Slotted-FAMA-derived protocols defer on any
	// overheard RTS; EW-MAC instead arbitrates by random priority.
	LenientGrant bool
	// Recorder is the observability event sink; nil (the default)
	// disables all MAC-level event emission at the cost of one branch
	// per emission site.
	Recorder obs.Recorder
	// Clock is the node's local oscillator; nil means a perfect clock
	// (local time == simulation time). A drifting clock shifts this
	// node's slot boundaries and frame timestamps.
	Clock Clock
	// SlotLane carries the slot ticks of nodes with a perfect clock (nil:
	// a lane of the node's own); a node with a Clock ticks on its own.
	SlotLane *sim.Lane
	// Hardened arms the fault extension the paper does without (it
	// assumes synchronized sensors and a trustworthy delay table):
	// unicast Hello probes that refresh single delay-table entries, and
	// answers to them; per-peer liveness (suspect after suspectAfter
	// consecutive failures, dead after deadAfter, a dead peer's traffic
	// purged); the stuck-state watchdog; and EW-MAC's stale-delay
	// admission rule. Off by default, so every hardening path is a
	// no-op and the node runs the paper's protocol.
	Hardened bool
	// Overload configures queue drop policies, admission control, and
	// retry budgets; the zero value disables all of them and keeps the
	// pre-overload behaviour bit-identical (see OverloadConfig).
	Overload OverloadConfig
}

// Protocol constants: the backoff window bounds every Node uses, and
// Base's priority, probe and scheduling margins.
const (
	// cwMin is the initial binary-exponential backoff window, in slots.
	cwMin = 2
	// cwMax caps the window. In a saturated single broadcast domain a
	// successful handshake needs a slot with exactly one RTS, so the
	// window must be able to grow to the same order as the contender
	// population.
	cwMax = 128
	// rpBoostCap is the wait-slots count at which the random priority
	// boost saturates (paper §3.1: rp reflects contention/wait time).
	rpBoostCap = 16
	// probeMinGap rate-limits unicast delay probes per peer.
	probeMinGap = 10 * time.Second
	// Guard is the scheduling safety margin the opportunistic protocols
	// keep around every predicted busy window.
	Guard = 2 * time.Millisecond
)

func (c *Config) applyDefaults() {
	if c.HelloWindow <= 0 {
		c.HelloWindow = 10 * time.Second
	}
	if c.SlotLane == nil && c.Clock == nil {
		c.SlotLane = c.Engine.NewLane(sim.PriorityMAC)
	}
	c.Overload.applyDefaults()
}

// Validate reports the first invalid field.
func (c Config) Validate() error {
	switch {
	case c.ID == packet.Nobody || c.ID == packet.Broadcast:
		return fmt.Errorf("mac: invalid node ID %v", c.ID)
	case c.Engine == nil:
		return errors.New("mac: nil engine")
	case c.Modem == nil:
		return errors.New("mac: nil modem")
	case c.BitRate <= 0:
		return fmt.Errorf("mac: bit rate %v", c.BitRate)
	}
	if err := c.Overload.Validate(c.QueueMax); err != nil {
		return err
	}
	return c.Slots.Validate()
}

// Base is the shared slotted four-way-handshake engine, built on the
// Node core. Protocol implementations embed *Base and provide Hooks.
type Base struct {
	Node
	hooks Hooks

	// table is held inline: every decoded frame refreshes an entry, so
	// its slice header is one load from the Base, not two.
	table  NeighborTable
	ledger *Ledger

	role Role
	// Sender-side state (the round's packet is Node.cur).
	hasCur      bool
	rtsSlot     int64
	dataSlot    int64
	ackDeadline int64
	curTau      time.Duration
	headSince   int64
	// Receiver-side state. rtsCands buckets the RTS frames addressed to
	// this node by the slot they were sent in; emptied buckets go to
	// candFree, cleared, for the next slot to reuse.
	rtsCands    map[int64][]*packet.Frame
	candFree    [][]*packet.Frame
	rxDataSlot  int64
	rxSender    packet.NodeID
	rxDataTx    time.Duration
	rxTau       time.Duration
	rxAckSlot   int64
	rxGotData   bool
	rxDataFrame *packet.Frame
	// holdUntil suspends contention and CTS granting while an
	// extra-communication exchange owns the transducer's near future.
	holdUntil sim.Time
	// curXID/rxXID are the lineage of the in-flight sender/receiver
	// handshake.
	curXID uint64
	rxXID  uint64
	// lastProbe rate-limits unicast delay probes per peer.
	lastProbe map[packet.NodeID]sim.Time
	// roleSlot is the slot the current role was entered at (watchdog
	// input).
	roleSlot int64
}

// NewBase validates cfg and returns an engine running the default
// (S-FAMA) hooks until SetHooks replaces them.
func NewBase(cfg Config) (*Base, error) {
	b := &Base{
		table:     *NewNeighborTable(cfg.MaxID),
		ledger:    NewLedger(cfg.Slots),
		role:      RoleIdle,
		rtsCands:  make(map[int64][]*packet.Frame),
		lastProbe: make(map[packet.NodeID]sim.Time),
	}
	if err := b.Init(cfg, "mac", "handshake failures", b.onSlotStart); err != nil {
		return nil, err
	}
	b.onVerdict = b.peerVerdict
	b.hooks = b
	return b, nil
}

// SetHooks installs the protocol behaviour. Must precede Start.
func (b *Base) SetHooks(h Hooks) { b.hooks = h }

// PickWinner implements Hooks: the first RTS to arrive wins.
func (b *Base) PickWinner(cands []*packet.Frame) *packet.Frame {
	if len(cands) == 0 {
		return nil
	}
	return cands[0]
}

// Piggyback implements Hooks: no neighbour state rides on control
// frames.
func (b *Base) Piggyback(*packet.Frame) {}

// OnSlotStart implements Hooks.
func (b *Base) OnSlotStart(int64) {}

// OnContentionLost implements Hooks: the loser simply backs off.
func (b *Base) OnContentionLost(*packet.Frame) {}

// OnNegotiated implements Hooks.
func (b *Base) OnNegotiated(*packet.Frame) {}

// OnOverheard implements Hooks: the ledger already defers for every
// overheard negotiation.
func (b *Base) OnOverheard(*packet.Frame) {}

// OnExtraFrame implements Hooks: a stray extra frame is ignored.
func (b *Base) OnExtraFrame(*packet.Frame) {}

// OnRestart implements Hooks: there is no exchange state beyond the
// base's own.
func (b *Base) OnRestart() {}

// Table returns the one-hop delay table.
func (b *Base) Table() *NeighborTable { return &b.table }

// Ledger returns the overheard-negotiation ledger.
func (b *Base) Ledger() *Ledger { return b.ledger }

// Role returns the current primary-handshake role.
func (b *Base) Role() Role { return b.role }

// RecordExtra records one extra-communication lifecycle event at the
// current instant when observing. xid is the extra exchange's lineage
// and parent the primary handshake it exploits (zero when unknown).
func (b *Base) RecordExtra(peer packet.NodeID, action, reason string, xid, parent uint64) {
	if b.Observing() {
		obs.Extra{Node: b.cfg.ID, Peer: peer, Action: action, Reason: reason, XID: xid, Parent: parent}.Emit(b.RecNow())
	}
}

// setRole switches the primary-handshake role, recording the
// transition when observability is on.
func (b *Base) setRole(to Role) {
	if to != b.role {
		now := b.cfg.Engine.Now()
		if r := b.cfg.Recorder; r != nil {
			obs.MACState{
				Node: b.cfg.ID,
				From: b.role.String(),
				To:   to.String(),
				Slot: b.cfg.Slots.SlotAt(now),
			}.Emit(r, now)
		}
		b.roleSlot = b.cfg.Slots.SlotAt(now)
	}
	b.role = to
}

// SetHold suspends base contention and CTS granting until t; protocols
// use it while an extra exchange owns the near future. Zero clears.
func (b *Base) SetHold(t sim.Time) { b.holdUntil = t }

// Held reports whether the base is currently suspended.
func (b *Base) Held() bool { return b.cfg.Engine.Now() < b.holdUntil }

// ControlTx returns the worst-case on-air time of this protocol's
// control frames (ω plus piggyback padding).
func (b *Base) ControlTx() time.Duration { return b.cfg.Slots.CtrlDur() }

// FrameTx returns the exact on-air time of f at the shared rate.
func (b *Base) FrameTx(f *packet.Frame) time.Duration {
	return f.TxDuration(b.cfg.BitRate)
}

// Start implements Protocol: arms the slot loop and the Hello phase.
func (b *Base) Start() {
	if b.started {
		return
	}
	if b.cfg.EnableHello {
		off := time.Duration(b.rng.Int63n(int64(b.cfg.HelloWindow)))
		b.cfg.Engine.ScheduleIn(off, sim.PriorityMAC, b.sendHello)
	}
	b.Node.Start()
}

func (b *Base) sendHello() {
	f := b.NewFrame(packet.KindHello, packet.Broadcast)
	if err := b.SendNow(f); err == nil {
		b.counters.MaintenanceBits += uint64(f.Bits())
	}
}

// Probe sends a unicast Hello to peer to refresh its delay-table entry
// (the peer answers with a unicast NbrUpdate, whose timestamp gives
// this node a fresh measurement). Probes are rate-limited per peer by
// probeMinGap and reported in Counters.Probes. Returns whether a probe
// went on air.
func (b *Base) Probe(peer packet.NodeID) bool {
	if !b.cfg.Hardened || peer == packet.Nobody || peer == packet.Broadcast {
		return false
	}
	now := b.cfg.Engine.Now()
	if last, ok := b.lastProbe[peer]; ok && now.Sub(last) < probeMinGap {
		return false
	}
	if b.cfg.Modem.Transmitting() {
		return false
	}
	f := b.NewFrame(packet.KindHello, peer)
	if err := b.SendNow(f); err != nil {
		return false
	}
	b.lastProbe[peer] = now
	b.counters.Probes++
	b.counters.MaintenanceBits += uint64(f.Bits())
	return true
}

// replyProbe answers a unicast Hello probe with a unicast NbrUpdate.
// The reply kind is deliberately not another Hello so probes can never
// ping-pong. A busy transducer silently drops the reply; the prober's
// rate limiter will retry later.
func (b *Base) replyProbe(peer packet.NodeID) {
	f := b.NewFrame(packet.KindNbrUpdate, peer)
	if err := b.SendNow(f); err == nil {
		b.counters.MaintenanceBits += uint64(f.Bits())
	}
}

// Restart cold-starts the node after a crash/recovery cycle: on top of
// Node.Restart, every piece of handshake soft state — role, learned
// delay table, overheard-negotiation ledger, pending RTS candidates,
// holds — is dropped, and the protocol hook clears its own exchange
// state.
func (b *Base) Restart() {
	b.setRole(RoleIdle)
	b.Node.Restart()
	b.hasCur = false
	for _, c := range b.rtsCands {
		b.recycleCands(c)
	}
	clear(b.rtsCands)
	b.rxSender = packet.Nobody
	b.rxDataFrame = nil
	b.rxGotData = false
	b.holdUntil = 0
	b.curXID = 0
	b.rxXID = 0
	b.table.Clear()
	b.ledger.Clear()
	b.lastProbe = make(map[packet.NodeID]sim.Time)
	b.headSince = b.cfg.Slots.SlotAt(b.cfg.Engine.Now())
	b.hooks.OnRestart()
}

// NewFrame builds a frame from this node with the timestamp left to be
// stamped at transmission (SendNow fills it).
func (b *Base) NewFrame(kind packet.Kind, dst packet.NodeID) *packet.Frame {
	return &packet.Frame{Kind: kind, Src: b.cfg.ID, Dst: dst}
}

// DataFrame builds a payload frame of the given kind (Data, EXData,
// StolenData) carrying p to its next hop.
func (b *Base) DataFrame(kind packet.Kind, p AppPacket) *packet.Frame {
	f := b.NewFrame(kind, p.Dst)
	f.DataBits = p.Bits
	f.Seq = p.Seq
	f.Origin = p.Origin
	f.GeneratedAt = p.GeneratedAt
	return f
}

// NewEXAck builds the acknowledgement of an extra payload frame.
func (b *Base) NewEXAck(data *packet.Frame) *packet.Frame {
	ack := b.NewFrame(packet.KindEXAck, data.Src)
	ack.XID = data.XID
	ack.Seq = data.Seq
	ack.Origin = data.Origin
	return ack
}

// SendNow stamps and transmits f immediately. Control frames pass
// through the Piggyback hook first.
func (b *Base) SendNow(f *packet.Frame) error {
	if f.Kind.IsControl() {
		b.hooks.Piggyback(f)
	}
	f.Timestamp = b.LocalNow().Duration()
	return b.cfg.Modem.Transmit(f)
}

// SendAt schedules f for transmission at instant t (stamped then). An
// instant already in the past — possible when t was derived from a
// drifted peer's frame timestamp — degrades to sending immediately.
func (b *Base) SendAt(t sim.Time, f *packet.Frame, onErr func(error)) {
	b.ScheduleClamped(t, sim.PriorityMAC, func() {
		if err := b.SendNow(f); err != nil && onErr != nil {
			onErr(err)
		}
	})
}

// ---- Slot engine ----

func (b *Base) onSlotStart(s int64) {
	b.ledger.Prune(s)

	// 0. Stuck-state watchdog (no-op unless the node is hardened).
	b.watchdogCheck(s)

	// 1. Receiver: answer last slot's RTS contention.
	b.receiverGrant(s)

	// 2. Sender timeline.
	switch b.role {
	case RoleWaitCTS:
		if s >= b.rtsSlot+2 {
			// No CTS arrived: contention failed.
			b.counters.ContentionFailures++
			if b.Observing() {
				obs.Contention{Node: b.cfg.ID, Peer: b.cur.Dst, Outcome: obs.ContentionTimeout, Slot: s, XID: b.curXID}.Emit(b.RecNow())
			}
			b.failRound(s)
		}
	case RoleSendData:
		if s == b.dataSlot {
			b.transmitData(s)
		}
	case RoleWaitAck:
		if s >= b.ackDeadline {
			b.counters.Retransmissions++
			b.counters.RetransmittedBits += uint64(b.cur.Bits)
			b.failRound(s)
		}
	case RoleWaitData:
		if s == b.rxAckSlot {
			b.finishReceive(s)
		}
	case RoleIdle:
		// Fall through to contention.
	}

	// 3. Contention.
	b.maybeContend(s)

	// 4. Protocol extension point.
	b.hooks.OnSlotStart(s)

	// Drop stale RTS candidate buckets.
	for slot, c := range b.rtsCands {
		if slot < s-1 {
			delete(b.rtsCands, slot)
			b.recycleCands(c)
		}
	}
}

// recycleCands returns an emptied RTS candidate bucket to the free
// list, cleared so it retains no frame.
func (b *Base) recycleCands(c []*packet.Frame) {
	clear(c)
	b.candFree = append(b.candFree, c[:0])
}

func (b *Base) receiverGrant(s int64) {
	cands := b.rtsCands[s-1]
	if len(cands) == 0 {
		return
	}
	delete(b.rtsCands, s-1)
	defer b.recycleCands(cands)
	if b.role != RoleIdle || b.Held() {
		return
	}
	quiet := b.ledger.QuietUntilSlot()
	if b.cfg.LenientGrant {
		quiet = b.ledger.QuietUntilSlotConfirmed()
	}
	if quiet > s {
		return
	}
	winner := b.hooks.PickWinner(cands)
	if winner == nil {
		return
	}
	tau, ok := b.table.Delay(winner.Src)
	if !ok {
		tau = b.cfg.Slots.TauMax
	}
	cts := b.NewFrame(packet.KindCTS, winner.Src)
	cts.PairDelay = tau
	cts.DataBits = winner.DataBits
	cts.XID = winner.XID
	if err := b.SendNow(cts); err != nil {
		return
	}
	b.rxXID = winner.XID
	b.counters.CTSSent++
	if b.Observing() {
		obs.Contention{Node: b.cfg.ID, Peer: winner.Src, Outcome: obs.ContentionGrant, Slot: s, XID: winner.XID}.Emit(b.RecNow())
		obs.SlotPeriod{Node: b.cfg.ID, Peer: winner.Src, Period: "II", Slot: s}.Emit(b.RecNow())
	}
	b.setRole(RoleWaitData)
	b.rxDataSlot = s + 1
	b.rxSender = winner.Src
	b.rxDataTx = b.DataTx(winner.DataBits)
	b.rxTau = tau
	b.rxGotData = false
	b.rxDataFrame = nil
	b.rxAckSlot = b.cfg.Slots.AckSlot(s+1, b.rxDataTx, tau)
}

func (b *Base) maybeContend(s int64) {
	if b.role != RoleIdle || b.cfg.IsSink || b.Held() {
		return
	}
	head, ok, fresh := b.NextHead()
	if fresh {
		b.headSince = s
	}
	if !ok {
		return
	}
	if b.ledger.QuietUntilSlot() > s {
		// The channel is reserved: freeze the backoff counter (802.11
		// semantics). Counting down only in free slots desynchronizes
		// contenders after an exchange ends; counting in wall-clock
		// slots would release every backlogged node at once and
		// collapse throughput under load.
		return
	}
	if b.cfg.Modem.Transmitting() || b.cfg.Modem.Receiving() {
		return
	}
	if b.HoldOff(s) {
		return
	}
	tau, known := b.table.Delay(head.Dst)
	if !known {
		tau = b.cfg.Slots.TauMax
	}
	rts := b.NewFrame(packet.KindRTS, head.Dst)
	rts.DataBits = head.Bits
	rts.PairDelay = tau
	rts.RP = b.randomPriority(s)
	rts.XID = b.NewXID()
	if err := b.SendNow(rts); err != nil {
		return
	}
	b.curXID = rts.XID
	b.counters.RTSSent++
	if b.Observing() {
		obs.Contention{Node: b.cfg.ID, Peer: head.Dst, Outcome: obs.ContentionRTS, Slot: s, XID: rts.XID}.Emit(b.RecNow())
		obs.SlotPeriod{Node: b.cfg.ID, Peer: head.Dst, Period: "I", Slot: s}.Emit(b.RecNow())
	}
	b.setRole(RoleWaitCTS)
	b.BeginRound(head)
	b.hasCur = true
	b.rtsSlot = s
	b.curTau = tau
}

// randomPriority implements the paper's rp: a random value boosted by
// how long the head packet has waited, so starved nodes eventually win
// receiver arbitration.
func (b *Base) randomPriority(s int64) float64 {
	wait := s - b.headSince
	if wait < 0 {
		wait = 0
	}
	if wait > rpBoostCap {
		wait = rpBoostCap
	}
	return b.rng.Float64() + float64(wait)/float64(rpBoostCap)
}

func (b *Base) transmitData(s int64) {
	if !b.hasCur {
		b.setRole(RoleIdle)
		return
	}
	f := b.DataFrame(packet.KindData, b.cur)
	f.PairDelay = b.curTau
	f.XID = b.curXID
	if err := b.SendNow(f); err != nil {
		b.failRound(s)
		return
	}
	if b.Observing() {
		obs.SlotPeriod{Node: b.cfg.ID, Peer: b.cur.Dst, Period: "IV", Slot: s}.Emit(b.RecNow())
	}
	b.setRole(RoleWaitAck)
	b.ackDeadline = b.cfg.Slots.AckSlot(s, b.DataTx(b.cur.Bits), b.curTau) + 1
}

func (b *Base) finishReceive(s int64) {
	if b.rxGotData && b.rxDataFrame != nil {
		ack := b.NewFrame(packet.KindAck, b.rxSender)
		ack.Seq = b.rxDataFrame.Seq
		ack.PairDelay = b.rxTau
		ack.XID = b.rxXID
		if err := b.SendNow(ack); err == nil {
			if b.Observing() {
				obs.SlotPeriod{Node: b.cfg.ID, Peer: b.rxSender, Period: "VI", Slot: s}.Emit(b.RecNow())
			}
			b.DeliverData(b.rxDataFrame, false)
		}
	}
	b.setRole(RoleIdle)
	b.rxSender = packet.Nobody
	b.rxDataFrame = nil
	b.rxGotData = false
}

// failRound aborts the current sender round, leaving the packet at the
// queue head and backing off.
func (b *Base) failRound(s int64) {
	b.setRole(RoleIdle)
	if b.FailRound(b.cur, b.hasCur) {
		b.headSince = s
	}
	b.hasCur = false
}

// CompleteHead removes the queue head if it matches (origin, seq) —
// used by protocols when an extra exchange delivers the head packet —
// and resets the sender round.
func (b *Base) CompleteHead(origin packet.NodeID, seq uint32) bool {
	head, ok := b.queue.Peek()
	if !ok || head.Origin != origin || head.Seq != seq {
		return false
	}
	b.CompleteRound()
	b.hasCur = false
	b.headSince = b.cfg.Slots.SlotAt(b.cfg.Engine.Now())
	return true
}

// CompleteBySeq removes the first queued packet matching (origin, seq)
// wherever it sits (ROPA appends out of FIFO order).
func (b *Base) CompleteBySeq(origin packet.NodeID, seq uint32) bool {
	for i, p := range b.queue.Items() {
		if p.Origin == origin && p.Seq == seq {
			b.queue.RemoveAt(i)
			b.counters.AckedPackets++
			return true
		}
	}
	return false
}

// ---- Schedule introspection (used by extra-communication paths) ----

// PrimaryFreeAt returns the earliest instant at which this node's
// current primary exchange, including its final Ack, will be over —
// the start of the paper's period IV/VI, where granted extra data may
// arrive. For an idle node it is simply now.
func (b *Base) PrimaryFreeAt() sim.Time {
	s := b.cfg.Slots
	switch b.role {
	case RoleWaitData:
		// I send the Ack at rxAckSlot.
		return s.StartOf(b.rxAckSlot).Add(s.CtrlDur())
	case RoleWaitCTS:
		// Not yet negotiated: assume success and budget through the
		// Ack arrival (conservative for granting).
		ack := s.AckSlot(b.rtsSlot+2, b.DataTx(b.cur.Bits), b.curTau)
		return s.StartOf(ack).Add(b.curTau + s.CtrlDur())
	case RoleSendData:
		ack := s.AckSlot(b.dataSlot, b.DataTx(b.cur.Bits), b.curTau)
		return s.StartOf(ack).Add(b.curTau + s.CtrlDur())
	case RoleWaitAck:
		return s.StartOf(b.ackDeadline - 1).Add(b.curTau + s.CtrlDur())
	default:
		return b.cfg.Engine.Now()
	}
}

// NextBusyAt returns the next instant at which this node must transmit
// or receive for its primary exchange, and whether such an instant
// exists. The gap between now and that instant is the idle window an
// extra-communication reply (EXC) must fit into.
func (b *Base) NextBusyAt() (sim.Time, bool) {
	s := b.cfg.Slots
	now := b.cfg.Engine.Now()
	var cands []sim.Time
	switch b.role {
	case RoleWaitData:
		cands = []sim.Time{
			s.StartOf(b.rxDataSlot).Add(b.rxTau), // data starts arriving
			s.StartOf(b.rxAckSlot),               // I transmit the Ack
		}
	case RoleWaitCTS:
		cands = []sim.Time{
			s.StartOf(b.rtsSlot + 1).Add(b.curTau), // CTS arrives
			s.StartOf(b.rtsSlot + 2),               // data would go out
		}
	case RoleSendData:
		cands = []sim.Time{s.StartOf(b.dataSlot)}
	case RoleWaitAck:
		cands = []sim.Time{s.StartOf(b.ackDeadline - 1).Add(b.curTau)}
	default:
		return 0, false
	}
	for _, c := range cands {
		if !c.Before(now) {
			return c, true
		}
	}
	return 0, false
}

// ClearAtNeighbors is the §4.2 neighbour guard: it reports whether a
// transmission starting at sendT and lasting dur arrives at every
// neighbour this node knows to be party to a negotiation outside that
// neighbour's predicted receive windows, Guard-padded. target is
// excluded (its window is checked explicitly). A party whose delay is
// unknown fails the check: the paper requires certainty.
func (b *Base) ClearAtNeighbors(sendT sim.Time, dur time.Duration, target packet.NodeID) bool {
	for _, n := range b.ledger.BusyParties() {
		if n == target || n == b.cfg.ID {
			continue
		}
		tau, known := b.table.Delay(n)
		if !known {
			return false
		}
		iv := Interval{Start: sendT.Add(tau - Guard), End: sendT.Add(tau + dur + Guard)}
		if b.ledger.RxConflict(n, iv) {
			return false
		}
	}
	return true
}

// ---- PHY listener ----

var _ phy.Listener = (*Base)(nil)

// OnFrameReceived implements phy.Listener.
func (b *Base) OnFrameReceived(f *packet.Frame) {
	now := b.cfg.Engine.Now()
	localEnd := b.LocalNow()
	// Physical-consistency gate on the paper's §4.3 delay measurement:
	// with perfect clocks (arrival end − timestamp − tx time) is the
	// exact propagation delay, but under injected drift the two clock
	// errors land in the measurement and can make it negative or longer
	// than any in-range path. Such a reading is physically impossible —
	// feeding it to the table would poison scheduling silently, so it
	// is counted, reported, and discarded instead. The upper bound
	// carries 25% slack over τmax because depth-dependent sound-speed
	// profiles legitimately exceed the surface-speed bound slightly.
	d := localEnd.Duration() - f.Timestamp - b.FrameTx(f)
	if maxPlausible := b.cfg.Slots.TauMax + b.cfg.Slots.TauMax/4; d < 0 || d > maxPlausible {
		b.counters.ImpossibleRx++
		// The stored delay for this peer came from the same poisoned
		// timestamp source; flag it so confidence-aware admission rules
		// (EW-MAC's stale-delay fallback) stop trusting it.
		b.table.MarkSuspect(f.Src)
		if b.Observing() {
			obs.Invariant{
				Node: b.cfg.ID, Check: "impossible-rx",
				Detail: fmt.Sprintf("frame %v->%v %v: measured delay %v outside [0, %v]",
					f.Src, f.Dst, f.Kind, d, maxPlausible),
			}.Emit(b.RecNow())
		}
	} else {
		b.table.Observe(f, localEnd, b.FrameTx(f))
		// Learn third-party pair delays from overheard negotiation frames.
		if f.PairDelay > 0 && f.Dst != b.cfg.ID && f.Dst != packet.Broadcast {
			b.table.ObservePair(f.Dst, f.PairDelay, now)
		}
	}

	// Any decoded frame proves the peer transmits: resurrect it if the
	// liveness layer had written it off. (Delay-table trust is tracked
	// separately — an implausible timestamp above keeps the entry
	// suspect even though the peer is demonstrably alive.)
	b.NoteAlive(f.Src)

	switch f.Kind {
	case packet.KindHello, packet.KindNbrUpdate:
		if f.Kind == packet.KindHello && f.Dst == b.cfg.ID && b.cfg.Hardened {
			b.replyProbe(f.Src)
		}
		b.hooks.OnOverheard(f)
	case packet.KindRTS:
		b.onRTS(f)
	case packet.KindCTS:
		b.onCTS(f, now)
	case packet.KindData:
		b.onData(f)
	case packet.KindAck:
		b.onAck(f)
	default:
		if f.Dst == b.cfg.ID {
			b.hooks.OnExtraFrame(f)
		} else {
			b.hooks.OnOverheard(f)
		}
	}
}

func (b *Base) onRTS(f *packet.Frame) {
	sendSlot := b.cfg.Slots.SlotAt(sim.At(f.Timestamp))
	if f.Dst == b.cfg.ID {
		c, ok := b.rtsCands[sendSlot]
		if n := len(b.candFree); !ok && n > 0 {
			c = b.candFree[n-1]
			b.candFree = b.candFree[:n-1]
		}
		b.rtsCands[sendSlot] = append(c, f)
		return
	}
	b.ledger.ObserveRTS(f, sendSlot, b.DataTx(f.DataBits))
	if b.role == RoleWaitCTS && f.Src == b.cur.Dst {
		// My target is itself contending for someone else.
		if b.Observing() {
			obs.Contention{Node: b.cfg.ID, Peer: f.Src, Outcome: obs.ContentionLost, Slot: sendSlot, XID: b.curXID}.Emit(b.RecNow())
		}
		b.hooks.OnContentionLost(f)
	}
	b.hooks.OnOverheard(f)
}

func (b *Base) onCTS(f *packet.Frame, now sim.Time) {
	ctsSlot := b.cfg.Slots.SlotAt(sim.At(f.Timestamp))
	if f.Dst == b.cfg.ID {
		if b.role == RoleWaitCTS && f.Src == b.cur.Dst {
			// Negotiated: data goes out at the next slot boundary.
			if tau, ok := b.table.Delay(f.Src); ok {
				b.curTau = tau
			}
			if b.Observing() {
				obs.Contention{Node: b.cfg.ID, Peer: f.Src, Outcome: obs.ContentionWon, Slot: ctsSlot, XID: b.curXID}.Emit(b.RecNow())
				obs.SlotPeriod{Node: b.cfg.ID, Peer: f.Src, Period: "III", Slot: ctsSlot}.Emit(b.RecNow())
			}
			b.setRole(RoleSendData)
			b.dataSlot = ctsSlot + 1
			b.hooks.OnNegotiated(f)
		}
		return
	}
	b.ledger.ObserveCTS(f, ctsSlot, b.DataTx(f.DataBits))
	if b.role == RoleWaitCTS && f.Src == b.cur.Dst {
		// My target granted someone else.
		if b.Observing() {
			obs.Contention{Node: b.cfg.ID, Peer: f.Src, Outcome: obs.ContentionLost, Slot: ctsSlot, XID: b.curXID}.Emit(b.RecNow())
		}
		b.hooks.OnContentionLost(f)
	}
	b.hooks.OnOverheard(f)
}

func (b *Base) onData(f *packet.Frame) {
	if f.Dst == b.cfg.ID {
		if b.role == RoleWaitData && f.Src == b.rxSender {
			b.rxGotData = true
			b.rxDataFrame = f
		}
		return
	}
	// Overheard data from an exchange we may have missed: make sure the
	// ledger covers it so we stay quiet through its Ack.
	tau := f.PairDelay
	if tau <= 0 {
		tau = b.cfg.Slots.TauMax
	}
	b.ledger.ObserveData(f.Src, f.Dst, b.cfg.Slots.SlotAt(sim.At(f.Timestamp)), tau, b.FrameTx(f))
	b.hooks.OnOverheard(f)
}

func (b *Base) onAck(f *packet.Frame) {
	if f.Dst == b.cfg.ID {
		if b.role == RoleWaitAck && f.Src == b.cur.Dst && f.Seq == b.cur.Seq {
			b.CompleteRound()
			b.hasCur = false
			if b.Observing() {
				obs.SlotPeriod{
					Node: b.cfg.ID, Peer: f.Src, Period: "VII",
					Slot: b.cfg.Slots.SlotAt(b.cfg.Engine.Now()),
				}.Emit(b.RecNow())
			}
			b.setRole(RoleIdle)
			b.headSince = b.cfg.Slots.SlotAt(b.cfg.Engine.Now())
		}
		return
	}
	b.hooks.OnOverheard(f)
}

// OnFrameLost implements phy.Listener. Losses are invisible to real
// MACs, so the base ignores them; protocol wrappers that want loss
// statistics can shadow this method.
func (b *Base) OnFrameLost(*packet.Frame, phy.LossReason) {}

// OnTxDone implements phy.Listener. The only base duty is the period-V
// timeline record: when a data frame finishes clocking out, its sender
// enters the wait-for-Ack period of Figure 2.
func (b *Base) OnTxDone(f *packet.Frame) {
	if b.Observing() && f.Kind == packet.KindData && b.role == RoleWaitAck {
		now := b.cfg.Engine.Now()
		obs.SlotPeriod{
			Node: b.cfg.ID, Peer: f.Dst, Period: "V",
			Slot: b.cfg.Slots.SlotAt(now),
		}.Emit(b.RecNow())
	}
}
