package mac

import (
	"fmt"

	"ewmac/internal/packet"
)

// Thresholds of the fault-hardening layer (Config.Hardened): per-peer
// liveness and the stuck-state watchdog.
const (
	// suspectAfter is the consecutive-failure count at which a peer is
	// marked suspect. A suspect peer's delay-table entry is flagged so
	// confidence-aware admission (EW-MAC's stale-delay rule) stops
	// trusting it.
	suspectAfter = 3
	// deadAfter is the consecutive-failure count at which a peer is
	// declared dead. Pending traffic to a dead peer is purged with a
	// typed drop and new contention toward it is suppressed until a
	// frame from the peer is overheard.
	deadAfter = 2 * suspectAfter
	// watchdogFactor scales the stuck-state bound: a node staying in any
	// non-idle handshake role longer than watchdogFactor worst-case
	// exchanges is force-reset through the cold-restart path.
	watchdogFactor = 4
)

// PeerState is the liveness verdict for one neighbor.
type PeerState uint8

// Liveness states. The zero value is alive, so a zeroed entry means
// the peer is presumed reachable.
const (
	PeerAlive PeerState = iota
	PeerSuspect
	PeerDead
)

// peerLiveness is one peer's consecutive failed rounds (saturating;
// every verdict is reached long before the cap) and verdict.
type peerLiveness struct {
	fails uint8
	state PeerState
}

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
// watchdogFactor worst-case four-way exchanges (RTS, CTS, the data
// occupancy of Equation (5), and the Ack slot), derived from the delay
// budget of the exchange actually in flight. Runs at every slot
// boundary; a no-op unless the node is hardened.
func (b *Base) watchdogCheck(s int64) {
	if !b.cfg.Hardened || b.role == RoleIdle {
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
