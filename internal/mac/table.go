package mac

import (
	"slices"
	"time"

	"ewmac/internal/packet"
	"ewmac/internal/sim"
)

// NeighborTable maintains measured one-hop propagation delays, per the
// paper's §4.3: every frame carries its sender's transmission
// timestamp, and a receiver derives the pairwise delay as
// (arrival end − timestamp − transmission time). An estimate holds
// until a newer measurement replaces it; Age reports how old it is, so
// admission rules that distrust old entries (EW-MAC's stale-delay rule)
// can decide for themselves.
//
// NodeIDs are dense small integers, so the table is a slice indexed by
// ID, sized once to the deployment's largest ID (and grown should a
// larger one appear): a lookup is an index, the Hello phase never
// reallocates, and iteration is already in ID order.
type NeighborTable struct {
	entries []tableEntry
}

// tableEntry is 16 bytes, so a 200-neighbour table spans 50 cache
// lines: the Hello phase of a dense run refreshes every entry of every
// table, and the flags would otherwise take a third word.
type tableEntry struct {
	delay time.Duration
	// stamp is the instant the estimate was heard, in its low 62 bits
	// (simulated time stays below 2^62 ns, 146 years), with the
	// knownBit and suspectBit flags above.
	stamp uint64
}

const (
	// knownBit marks a slot holding an estimate.
	knownBit uint64 = 1 << 63
	// suspectBit marks an entry whose peer produced a physically
	// impossible delay measurement since the last good refresh: every
	// delay learned from that peer's timestamps — including this one —
	// is then untrustworthy until a plausible measurement clears it.
	suspectBit uint64 = 1 << 62
	heardMask         = suspectBit - 1
)

func (e *tableEntry) known() bool     { return e.stamp&knownBit != 0 }
func (e *tableEntry) suspect() bool   { return e.stamp&suspectBit != 0 }
func (e *tableEntry) heard() sim.Time { return sim.Time(e.stamp & heardMask) }

// NewNeighborTable returns an empty table sized for IDs up to maxID.
func NewNeighborTable(maxID packet.NodeID) *NeighborTable {
	return &NeighborTable{entries: make([]tableEntry, int(maxID)+1)}
}

// entry returns the slot for id, or nil when id is beyond the table.
func (t *NeighborTable) entry(id packet.NodeID) *tableEntry {
	if int(id) >= len(t.entries) {
		return nil
	}
	return &t.entries[id]
}

// set stores a fresh (not suspect) estimate for id, growing the table
// to cover it.
func (t *NeighborTable) set(id packet.NodeID, delay time.Duration, heard sim.Time) {
	if int(id) >= len(t.entries) {
		t.entries = slices.Grow(t.entries, int(id)+1-len(t.entries))[:int(id)+1]
	}
	// A plain store: set never reads the slot. In a dense deployment
	// each Hello refreshes one slot in every receiver's table, each
	// likely out of cache, and a read would stall on every one of them.
	t.entries[id] = tableEntry{delay: delay, stamp: uint64(heard)&heardMask | knownBit}
}

// Observe updates the sender's delay estimate from a received frame.
// arrivalEnd is the instant reception completed; txDur the frame's
// on-air duration at the shared bit rate.
func (t *NeighborTable) Observe(f *packet.Frame, arrivalEnd sim.Time, txDur time.Duration) {
	delay := arrivalEnd.Duration() - f.Timestamp - txDur
	if delay < 0 {
		// Clock skew or a bogus timestamp: distrust, but keep the
		// neighbor known with a zero-floor delay.
		delay = 0
	}
	t.set(f.Src, delay, arrivalEnd)
}

// ObservePair folds in piggybacked third-party delay info (e.g. a CTS
// announcing τ between the negotiating pair) — the receiver learns of
// the pair's delay without having measured it. These entries inform
// scheduling around overheard exchanges, not transmissions to that
// node, so they are stored only if no direct measurement exists.
func (t *NeighborTable) ObservePair(id packet.NodeID, delay time.Duration, now sim.Time) {
	if id == packet.Nobody || id == packet.Broadcast {
		return
	}
	if e := t.entry(id); e != nil && e.known() {
		return
	}
	t.set(id, delay, now)
}

// Delay returns the current estimate for a neighbor and whether one
// exists.
func (t *NeighborTable) Delay(id packet.NodeID) (time.Duration, bool) {
	e := t.entry(id)
	if e == nil || !e.known() {
		return 0, false
	}
	return e.delay, true
}

// Age returns how long ago the estimate for a neighbor was refreshed,
// and whether an estimate exists. Staleness-aware admission rules use
// it to distrust old entries.
func (t *NeighborTable) Age(id packet.NodeID, now sim.Time) (time.Duration, bool) {
	e := t.entry(id)
	if e == nil || !e.known() {
		return 0, false
	}
	return now.Sub(e.heard()), true
}

// MarkSuspect flags an existing entry as untrustworthy (its peer just
// produced an impossible delay measurement). A later plausible
// Observe clears the flag.
func (t *NeighborTable) MarkSuspect(id packet.NodeID) {
	if e := t.entry(id); e != nil && e.known() {
		e.stamp |= suspectBit
	}
}

// Suspect reports whether the entry exists and is flagged suspect.
func (t *NeighborTable) Suspect(id packet.NodeID) bool {
	e := t.entry(id)
	return e != nil && e.suspect()
}

// Clear drops every entry, suspect flags included (node cold-start
// after a crash).
func (t *NeighborTable) Clear() { clear(t.entries) }

// count returns the number of known entries.
func (t *NeighborTable) count() int {
	n := 0
	for i := range t.entries {
		if t.entries[i].known() {
			n++
		}
	}
	return n
}

// AppendSnapshot appends up to max entries (every entry when max < 0)
// to dst as piggybackable NeighborInfo, in ID order starting at the
// from-th entry (modulo the entry count) and wrapping past the last to
// the first, and returns the extended slice. CS-MAC and ROPA use this
// to distribute two-hop state; EW-MAC only ever piggybacks the single
// pair under negotiation.
func (t *NeighborTable) AppendSnapshot(dst []packet.NeighborInfo, from, max int) []packet.NeighborInfo {
	n := t.count()
	if max < 0 || max > n {
		max = n
	}
	if max == 0 {
		return dst
	}
	dst = slices.Grow(dst, max)
	end := len(dst) + max
	// The first pass starts at the from-th entry; a second, when the
	// window wraps, starts at the first.
	for from %= n; len(dst) < end; from = 0 {
		rank := 0
		for i := range t.entries {
			if len(dst) == end {
				break
			}
			if e := &t.entries[i]; e.known() {
				if rank >= from {
					dst = append(dst, packet.NeighborInfo{ID: packet.NodeID(i), Delay: e.delay})
				}
				rank++
			}
		}
	}
	return dst
}
