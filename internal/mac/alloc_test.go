package mac

import (
	"testing"
	"time"

	"ewmac/internal/packet"
	"ewmac/internal/sim"
)

// These tests pin the MAC's steady state to zero allocations: the slot
// tick is bound once per node, the ledger stores exchanges by value and
// prunes in place, BusyParties reuses the ledger's buffer, RTS
// candidate buckets are recycled, and the neighbour table is a dense
// slice. Each cycle runs once to warm the free lists first.

func assertZeroAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	f()
	if avg := testing.AllocsPerRun(100, f); avg != 0 {
		t.Errorf("%s: %.2f allocs per steady-state cycle, want 0", name, avg)
	}
}

func TestSlotTickZeroAlloc(t *testing.T) {
	b, eng := testBase(t)
	b.Start()
	span := 16 * b.Slots().Len()
	before := b.counters
	assertZeroAllocs(t, "16 slot ticks", func() {
		eng.RunUntil(eng.Now().Add(span))
	})
	if eng.Executed() < 16*101 {
		t.Fatalf("only %d events ran; the slot loop did not tick", eng.Executed())
	}
	if b.counters != before {
		t.Fatalf("idle ticks changed the counters: %+v", b.counters)
	}
}

func TestRTSCandidateBucketZeroAlloc(t *testing.T) {
	b, eng := testBase(t)
	b.Start()
	// Holding keeps the receiver from answering, so each cycle only
	// fills a bucket and has the next slot's grant step recycle it.
	b.SetHold(sim.At(time.Hour))
	slot := b.Slots().Len()
	f := rtsFrame(2, 1, 0, 1024)
	assertZeroAllocs(t, "RTS bucket fill and recycle", func() {
		f.Timestamp = eng.Now().Duration()
		b.onRTS(f)
		eng.RunUntil(eng.Now().Add(slot))
	})
	if len(b.rtsCands) != 0 {
		t.Fatalf("%d RTS buckets left over", len(b.rtsCands))
	}
	for _, c := range b.candFree {
		for _, g := range c[:cap(c)] {
			if g != nil {
				t.Fatal("a recycled RTS bucket still holds a frame")
			}
		}
	}
}

func TestLedgerCycleZeroAlloc(t *testing.T) {
	l, _ := ledgerFixture()
	// A warm ledger: a few long-running exchanges stay tracked.
	for i := packet.NodeID(0); i < 4; i++ {
		l.ObserveCTS(ctsFrame(20+i, 30+i, time.Second, 1<<20), 1, time.Hour)
	}
	dataTx := 176 * time.Millisecond
	rts := rtsFrame(2, 3, 400*time.Millisecond, 2048)
	cts := ctsFrame(3, 2, 400*time.Millisecond, 2048)
	slot := int64(10)
	assertZeroAllocs(t, "ObserveRTS→ObserveCTS→Prune", func() {
		l.ObserveRTS(rts, slot, dataTx)
		l.ObserveCTS(cts, slot+1, dataTx)
		slot += 20
		l.Prune(slot)
	})
	if len(l.exchanges) != 4 || l.find(2, 3) != nil {
		t.Fatalf("ledger holds %d exchanges (pair 2→3 tracked: %v), want the 4 long-running ones",
			len(l.exchanges), l.find(2, 3) != nil)
	}
}

func TestBusyPartiesZeroAlloc(t *testing.T) {
	l, _ := ledgerFixture()
	for i := packet.NodeID(1); i <= 6; i++ {
		l.ObserveRTS(rtsFrame(i, 10-i, 0, 1024), 5, time.Millisecond)
	}
	l.ObserveCTS(ctsFrame(4, 6, 0, 1024), 6, time.Millisecond)
	assertZeroAllocs(t, "BusyParties", func() { _ = l.BusyParties() })
	want := []packet.NodeID{1, 2, 3, 4, 5, 6, 7, 8, 9}
	if got := l.BusyParties(); len(got) != len(want) {
		t.Fatalf("BusyParties = %v, want %v", got, want)
	}
}

func TestNeighborTableZeroAlloc(t *testing.T) {
	tab := NewNeighborTable(0)
	f := &packet.Frame{Kind: packet.KindRTS, Src: 7, Dst: 1}
	now := sim.At(time.Second)
	tab.Observe(f, now, time.Millisecond)
	assertZeroAllocs(t, "Observe+Delay for a known peer", func() {
		now = now.Add(time.Second)
		f.Timestamp = now.Duration() - 300*time.Millisecond
		tab.Observe(f, now, time.Millisecond)
		if d, ok := tab.Delay(7); !ok || d != 299*time.Millisecond {
			t.Fatalf("Delay = %v, %v", d, ok)
		}
	})
	// A cold-started node re-learns its neighbourhood: Clear keeps the
	// table's storage, so the next Hello phase fills it in place.
	hello := &packet.Frame{Kind: packet.KindHello, Dst: packet.Broadcast}
	assertZeroAllocs(t, "Clear and re-learn 64 peers", func() {
		tab.Clear()
		for id := packet.NodeID(64); id >= 1; id-- {
			hello.Src = id
			hello.Timestamp = now.Duration()
			tab.Observe(hello, now.Add(time.Duration(id)*time.Millisecond), 0)
		}
		if _, ok := tab.Delay(64); !ok || tab.count() != 64 {
			t.Fatalf("re-learned %d peers, want 64", tab.count())
		}
	})
}
