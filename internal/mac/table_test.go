package mac

import (
	"testing"
	"time"
	"unsafe"

	"ewmac/internal/packet"
	"ewmac/internal/sim"
)

func TestTableObserveDerivesDelay(t *testing.T) {
	tab := NewNeighborTable(0)
	// Frame sent at t=10s, tx took 5 ms, arrival completed at 10.505 s:
	// delay = 500 ms.
	f := &packet.Frame{Kind: packet.KindRTS, Src: 4, Dst: 9, Timestamp: 10 * time.Second}
	tab.Observe(f, sim.At(10*time.Second+505*time.Millisecond), 5*time.Millisecond)
	d, ok := tab.Delay(4)
	if !ok || d != 500*time.Millisecond {
		t.Fatalf("Delay = %v, %v; want 500ms", d, ok)
	}
}

func TestTableNegativeDelayClamped(t *testing.T) {
	tab := NewNeighborTable(0)
	f := &packet.Frame{Kind: packet.KindRTS, Src: 4, Dst: 9, Timestamp: 20 * time.Second}
	tab.Observe(f, sim.At(10*time.Second), time.Millisecond)
	d, ok := tab.Delay(4)
	if !ok || d != 0 {
		t.Fatalf("bogus timestamp should clamp to 0, got %v, %v", d, ok)
	}
}

func TestObservePairDoesNotOverrideMeasurement(t *testing.T) {
	tab := NewNeighborTable(0)
	f := &packet.Frame{Kind: packet.KindRTS, Src: 4, Dst: 9, Timestamp: 0}
	tab.Observe(f, sim.At(300*time.Millisecond), 0)
	tab.ObservePair(4, 999*time.Millisecond, sim.At(time.Second))
	if d, _ := tab.Delay(4); d != 300*time.Millisecond {
		t.Errorf("piggybacked info overwrote direct measurement: %v", d)
	}
	tab.ObservePair(7, 400*time.Millisecond, sim.At(time.Second))
	if d, ok := tab.Delay(7); !ok || d != 400*time.Millisecond {
		t.Errorf("pair info not stored for unknown node: %v, %v", d, ok)
	}
	tab.ObservePair(packet.Nobody, time.Second, sim.At(time.Second))
	tab.ObservePair(packet.Broadcast, time.Second, sim.At(time.Second))
	if tab.count() != 2 {
		t.Errorf("Len = %d after reserved-ID inserts, want 2", tab.count())
	}
}

func TestKnownSortedAndSnapshot(t *testing.T) {
	tab := NewNeighborTable(0)
	for _, id := range []packet.NodeID{9, 3, 7} {
		f := &packet.Frame{Kind: packet.KindHello, Src: id, Dst: packet.Broadcast, Timestamp: 0}
		tab.Observe(f, sim.At(time.Duration(id)*time.Millisecond), 0)
	}
	ids := known(tab)
	if len(ids) != 3 || ids[0] != 3 || ids[1] != 7 || ids[2] != 9 {
		t.Fatalf("known = %v", ids)
	}
	snap := tab.AppendSnapshot(nil, 0, 2)
	if len(snap) != 2 || snap[0].ID != 3 || snap[1].ID != 7 {
		t.Fatalf("AppendSnapshot = %v", snap)
	}
	if full := tab.AppendSnapshot(nil, 0, -1); len(full) != 3 {
		t.Fatalf("unbounded AppendSnapshot = %v", full)
	}
	// A window from the third entry wraps to the first, after what dst
	// already holds.
	prefix := []packet.NeighborInfo{{ID: 1}}
	if got := tab.AppendSnapshot(prefix, 2, 2); len(got) != 3 || got[0].ID != 1 || got[1].ID != 9 || got[2].ID != 3 {
		t.Fatalf("wrapped AppendSnapshot = %v", got)
	}
}

// TestTableEntryFoldsFlags pins the 16-byte entry: the known and
// suspect flags share a word with the heard instant without disturbing
// it, even at the largest instant the word holds.
func TestTableEntryFoldsFlags(t *testing.T) {
	if got := unsafe.Sizeof(tableEntry{}); got != 16 {
		t.Fatalf("tableEntry is %d bytes, want 16", got)
	}
	tab := NewNeighborTable(8)
	top := sim.Time(heardMask) // the largest heard instant the stamp holds
	for _, heard := range []sim.Time{0, sim.At(time.Second), top - 1, top} {
		tab.ObservePair(5, 3*time.Millisecond, heard)
		tab.MarkSuspect(5)
		if !tab.Suspect(5) {
			t.Fatalf("heard %d: MarkSuspect did not flag the entry", heard)
		}
		if d, ok := tab.Delay(5); !ok || d != 3*time.Millisecond {
			t.Errorf("heard %d: Delay = %v, %v after MarkSuspect", heard, d, ok)
		}
		if age, ok := tab.Age(5, top); !ok || age != top.Sub(heard) {
			t.Errorf("heard %d: Age = %v, %v, want %v", heard, age, ok, top.Sub(heard))
		}
		// A fresh measurement clears suspect and keeps the instant exact.
		f := &packet.Frame{Kind: packet.KindHello, Src: 5, Dst: packet.Broadcast, Timestamp: heard.Duration() - time.Millisecond}
		tab.Observe(f, heard, 0)
		if tab.Suspect(5) {
			t.Errorf("heard %d: set left the entry suspect", heard)
		}
		if age, ok := tab.Age(5, heard); !ok || age != 0 {
			t.Errorf("heard %d: Age at the heard instant = %v, %v, want 0", heard, age, ok)
		}
		tab.MarkSuspect(5)
		tab.Clear()
		if _, ok := tab.Delay(5); ok || tab.Suspect(5) || tab.count() != 0 {
			t.Errorf("heard %d: Clear left known=%v suspect=%v n=%d", heard, ok, tab.Suspect(5), tab.count())
		}
		if _, ok := tab.Age(5, heard); ok {
			t.Errorf("heard %d: Age reports a cleared entry", heard)
		}
	}
	// MarkSuspect on an unknown entry flags nothing.
	tab.MarkSuspect(6)
	if tab.Suspect(6) {
		t.Error("MarkSuspect flagged an unknown entry")
	}
}
