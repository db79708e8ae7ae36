package mac

import (
	"time"

	"ewmac/internal/packet"
	"ewmac/internal/sim"
)

// TwoHop is a Base that keeps its neighbours informed of its delay
// table, the two-hop maintenance ROPA and CS-MAC share and the overhead
// the paper charges them with (Figures 9 and 10). Every control frame
// except NbrUpdate carries the first piggy table entries; every period
// an NbrUpdate broadcast carries the next maint entries in rotation, so
// the whole table circulates without monster frames.
type TwoHop struct {
	*Base
	period       time.Duration
	maint, piggy int
	lastUpdate   sim.Time
	cursor       int
}

// NewTwoHop builds a two-hop Base: control frames are padded for piggy
// entries, and the maintenance phase is staggered per node so updates
// do not synchronize into collision storms. The protocol embeds the
// value and installs itself with SetHooks, so its Piggyback and
// OnSlotStart resolve to TwoHop's unless it overrides them.
func NewTwoHop(cfg Config, period time.Duration, maint, piggy int) (TwoHop, error) {
	cfg.Slots.Pad = packet.Duration(piggy*packet.NeighborInfoBits, cfg.BitRate)
	b, err := NewBase(cfg)
	if err != nil {
		return TwoHop{}, err
	}
	return TwoHop{
		Base: b, period: period, maint: maint, piggy: piggy,
		lastUpdate: sim.At(-time.Duration(b.rng.Int63n(int64(period)))),
	}, nil
}

// Piggyback implements Hooks: a table excerpt rides on every control
// frame but NbrUpdate, which carries its own.
func (t *TwoHop) Piggyback(f *packet.Frame) {
	if f.Kind == packet.KindNbrUpdate {
		return
	}
	f.Neighbors = t.table.AppendSnapshot(f.Neighbors, 0, t.piggy)
}

// OnSlotStart implements Hooks: once a period has passed, an idle node
// on a quiet channel broadcasts the next NbrUpdate.
func (t *TwoHop) OnSlotStart(int64) {
	now := t.cfg.Engine.Now()
	if now.Sub(t.lastUpdate) < t.period {
		return
	}
	if t.role != RoleIdle || t.Held() || t.cfg.Modem.Transmitting() {
		return
	}
	if t.ledger.QuietUntilSlot() > t.cfg.Slots.SlotAt(now) {
		return
	}
	upd := t.NewFrame(packet.KindNbrUpdate, packet.Broadcast)
	upd.Neighbors = t.rotatingSnapshot()
	if err := t.SendNow(upd); err != nil {
		return
	}
	t.lastUpdate = now
	t.counters.MaintenanceBits += uint64(upd.Bits())
}

// rotatingSnapshot returns up to maint table entries, starting at a
// cursor that advances with each broadcast.
func (t *TwoHop) rotatingSnapshot() []packet.NeighborInfo {
	n := t.table.count()
	if n <= t.maint {
		return t.table.AppendSnapshot(nil, 0, -1)
	}
	out := t.table.AppendSnapshot(nil, t.cursor, t.maint)
	t.cursor = (t.cursor + t.maint) % n
	return out
}
