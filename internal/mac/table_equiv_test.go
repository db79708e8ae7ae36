package mac

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"ewmac/internal/packet"
	"ewmac/internal/sim"
)

// known returns the IDs t holds estimates for, in ID order.
func known(t *NeighborTable) []packet.NodeID {
	out := make([]packet.NodeID, 0, t.n)
	for i := range t.entries {
		if t.entries[i].known {
			out = append(out, packet.NodeID(i))
		}
	}
	return out
}

// refTable is the map-based NeighborTable the dense implementation
// replaced, kept as the reference its behaviour must match.
type refTable struct {
	entries map[packet.NodeID]tableEntry
}

func newRefTable() *refTable {
	return &refTable{entries: make(map[packet.NodeID]tableEntry)}
}

func (t *refTable) Observe(f *packet.Frame, arrivalEnd sim.Time, txDur time.Duration) {
	delay := arrivalEnd.Duration() - f.Timestamp - txDur
	if delay < 0 {
		delay = 0
	}
	t.entries[f.Src] = tableEntry{delay: delay, heard: arrivalEnd}
}

func (t *refTable) ObservePair(id packet.NodeID, delay time.Duration, now sim.Time) {
	if id == packet.Nobody || id == packet.Broadcast {
		return
	}
	if _, ok := t.entries[id]; ok {
		return
	}
	t.entries[id] = tableEntry{delay: delay, heard: now}
}

func (t *refTable) Delay(id packet.NodeID) (time.Duration, bool) {
	e, ok := t.entries[id]
	return e.delay, ok
}

func (t *refTable) Age(id packet.NodeID, now sim.Time) (time.Duration, bool) {
	e, ok := t.entries[id]
	if !ok {
		return 0, false
	}
	return now.Sub(e.heard), true
}

func (t *refTable) MarkSuspect(id packet.NodeID) {
	if e, ok := t.entries[id]; ok {
		e.suspect = true
		t.entries[id] = e
	}
}

func (t *refTable) Suspect(id packet.NodeID) bool { return t.entries[id].suspect }

func (t *refTable) Clear() { t.entries = make(map[packet.NodeID]tableEntry) }

func (t *refTable) Known() []packet.NodeID {
	out := make([]packet.NodeID, 0, len(t.entries))
	for id := range t.entries {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// AppendSnapshot rotates the sorted entry list to start at from and
// appends its first max entries.
func (t *refTable) AppendSnapshot(dst []packet.NeighborInfo, from, max int) []packet.NeighborInfo {
	ids := t.Known()
	if len(ids) == 0 {
		return dst
	}
	from %= len(ids)
	ids = append(slices.Clone(ids[from:]), ids[:from]...)
	if max >= 0 && len(ids) > max {
		ids = ids[:max]
	}
	for _, id := range ids {
		d, _ := t.Delay(id)
		dst = append(dst, packet.NeighborInfo{ID: id, Delay: d})
	}
	return dst
}

// TestNeighborTableMatchesReference drives random operation sequences
// through NeighborTable and the map-based reference and requires every
// query to agree, including across Clear and reserved IDs.
func TestNeighborTableMatchesReference(t *testing.T) {
	// IDs span the reserved ones, a dense low range, and a sparse high
	// one that forces the table to grow.
	ids := []packet.NodeID{packet.Nobody, 1, 2, 3, 4, 5, 6, 7, 8, 40, 300, packet.Broadcast}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Odd seeds presize the table to ID 8, as a deployment does;
		// the sparse high IDs still make it grow.
		got, want := NewNeighborTable(packet.NodeID(seed%2)*8), newRefTable()
		now := sim.Time(0)
		pick := func() packet.NodeID { return ids[rng.Intn(len(ids))] }
		for step := 0; step < 400; step++ {
			now = now.Add(time.Duration(rng.Intn(800)) * time.Millisecond)
			var op string
			switch r := rng.Intn(100); {
			case r < 30:
				op = "Observe"
				src := pick()
				if src == packet.Broadcast {
					src = 2
				}
				f := &packet.Frame{
					Kind: packet.KindRTS, Src: src, Dst: 1,
					Timestamp: now.Duration() - time.Duration(rng.Intn(1500))*time.Millisecond,
				}
				tx := time.Duration(rng.Intn(300)) * time.Millisecond
				got.Observe(f, now, tx)
				want.Observe(f, now, tx)
			case r < 55:
				op = "ObservePair"
				id, d := pick(), time.Duration(rng.Intn(1000))*time.Millisecond
				got.ObservePair(id, d, now)
				want.ObservePair(id, d, now)
			case r < 70:
				op = "MarkSuspect"
				id := pick()
				got.MarkSuspect(id)
				want.MarkSuspect(id)
			case r < 73:
				op = "Clear"
				got.Clear()
				want.Clear()
			default:
				op = "query"
			}
			if g, w := got.n, len(want.entries); g != w {
				t.Fatalf("seed %d step %d after %s: Len = %d, want %d", seed, step, op, g, w)
			}
			for _, id := range ids {
				gd, gok := got.Delay(id)
				wd, wok := want.Delay(id)
				ga, gaok := got.Age(id, now)
				wa, waok := want.Age(id, now)
				if gd != wd || gok != wok || ga != wa || gaok != waok || got.Suspect(id) != want.Suspect(id) {
					t.Fatalf("seed %d step %d after %s: id %v: Delay %v,%v Age %v,%v Suspect %v; want %v,%v %v,%v %v",
						seed, step, op, id, gd, gok, ga, gaok, got.Suspect(id), wd, wok, wa, waok, want.Suspect(id))
				}
			}
			if g, w := known(got), want.Known(); !reflect.DeepEqual(g, w) {
				t.Fatalf("seed %d step %d after %s: Known = %v, want %v", seed, step, op, g, w)
			}
			from, max := rng.Intn(12), rng.Intn(6)-1
			if g, w := got.AppendSnapshot(nil, from, max), want.AppendSnapshot(nil, from, max); !slices.Equal(g, w) {
				t.Fatalf("seed %d step %d after %s: AppendSnapshot(%d, %d) = %v, want %v", seed, step, op, from, max, g, w)
			}
		}
	}
}
