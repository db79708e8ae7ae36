package mac

import (
	"testing"
	"time"

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
	if tab.n != 2 {
		t.Errorf("Len = %d after reserved-ID inserts, want 2", tab.n)
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
	snap := tab.Snapshot(2)
	if len(snap) != 2 || snap[0].ID != 3 || snap[1].ID != 7 {
		t.Fatalf("Snapshot = %v", snap)
	}
	if full := tab.Snapshot(-1); len(full) != 3 {
		t.Fatalf("unbounded Snapshot = %v", full)
	}
}
