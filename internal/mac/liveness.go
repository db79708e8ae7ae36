package mac

import (
	"fmt"

	"ewmac/internal/packet"
)

// RecoveryConfig controls the MAC's graceful-degradation layer:
// per-peer liveness tracking (consecutive failed handshakes mark a
// neighbor suspect, then dead) and the stuck-state watchdog. Disabled
// by default — the experiment layer switches it on only when fault
// injection is active, so fault-free runs stay bit-identical to the
// pre-recovery behaviour.
type RecoveryConfig struct {
	// Enabled arms liveness tracking and the watchdog. When false every
	// recovery path is a no-op.
	Enabled bool
	// SuspectAfter is the consecutive-failure count at which a peer is
	// marked suspect (default 3). A suspect peer's delay-table entry is
	// flagged so confidence-aware admission (EW-MAC's stale-delay rule)
	// stops trusting it.
	SuspectAfter int
	// DeadAfter is the consecutive-failure count at which a peer is
	// declared dead (default 2×SuspectAfter). Pending traffic to a dead
	// peer is purged with a typed drop and new contention toward it is
	// suppressed until a frame from the peer is overheard.
	DeadAfter int
	// WatchdogFactor scales the stuck-state bound: a node staying in
	// any non-idle handshake role longer than WatchdogFactor worst-case
	// exchanges is force-reset through the cold-restart path
	// (default 4).
	WatchdogFactor int64
}

func (r *RecoveryConfig) applyDefaults() {
	if r.SuspectAfter <= 0 {
		r.SuspectAfter = 3
	}
	if r.DeadAfter <= r.SuspectAfter {
		r.DeadAfter = 2 * r.SuspectAfter
	}
	if r.WatchdogFactor <= 0 {
		r.WatchdogFactor = 4
	}
}

// PeerState is the liveness verdict for one neighbor.
type PeerState uint8

// Liveness states. The zero value is alive, so an empty map means
// every peer is presumed reachable.
const (
	PeerAlive PeerState = iota
	PeerSuspect
	PeerDead
)

// String implements fmt.Stringer.
func (s PeerState) String() string {
	switch s {
	case PeerAlive:
		return "alive"
	case PeerSuspect:
		return "suspect"
	case PeerDead:
		return "dead"
	default:
		return fmt.Sprintf("PeerState(%d)", uint8(s))
	}
}

// PeerWatcher is an optional extension of Hooks: protocols that keep
// per-peer scheduling state (EW-MAC's delay table feeding the
// extra-communication admission rules) implement it to quarantine a
// dead peer's state and restore it on resurrection.
type PeerWatcher interface {
	// OnPeerDead fires when the base declares peer dead.
	OnPeerDead(peer packet.NodeID)
	// OnPeerAlive fires when a frame from a suspect/dead peer is
	// overheard and the peer returns to alive.
	OnPeerAlive(peer packet.NodeID)
}

// peerVerdict is Base's liveness hook: a failing peer's delay-table
// entry is flagged suspect, and death and resurrection are forwarded
// to a PeerWatcher protocol hook.
func (b *Base) peerVerdict(peer packet.NodeID, st PeerState) {
	if st != PeerAlive {
		b.table.MarkSuspect(peer)
	}
	if w, ok := b.hooks.(PeerWatcher); ok {
		switch st {
		case PeerDead:
			w.OnPeerDead(peer)
		case PeerAlive:
			w.OnPeerAlive(peer)
		}
	}
}

// watchdogCheck force-resets a MAC stuck in a non-idle role for
// WatchdogFactor worst-case four-way exchanges (RTS, CTS, the data
// occupancy of Equation (5), and the Ack slot), derived from the delay
// budget of the exchange actually in flight. Runs at every slot
// boundary; a no-op unless recovery is enabled.
func (b *Base) watchdogCheck(s int64) {
	if !b.cfg.Recovery.Enabled || b.role == RoleIdle {
		return
	}
	dataTx := b.cfg.Slots.Len()
	switch {
	case b.role == RoleWaitData:
		dataTx = b.rxDataTx
	case b.hasCur:
		dataTx = b.DataTx(b.cur.Bits)
	}
	exchange := 4 + b.cfg.Slots.DataSlots(dataTx, b.cfg.Slots.TauMax)
	if b.WatchdogTripped(b.role.String(), s-b.roleSlot, exchange) {
		b.Restart()
	}
}
