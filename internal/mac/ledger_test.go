package mac

import (
	"testing"
	"time"

	"ewmac/internal/packet"
	"ewmac/internal/sim"
)

func ledgerFixture() (*Ledger, SlotConfig) {
	s := paperSlots()
	return NewLedger(s), s
}

func rtsFrame(src, dst packet.NodeID, tau time.Duration, bits int) *packet.Frame {
	return &packet.Frame{Kind: packet.KindRTS, Src: src, Dst: dst, PairDelay: tau, DataBits: bits}
}

func ctsFrame(src, dst packet.NodeID, tau time.Duration, bits int) *packet.Frame {
	return &packet.Frame{Kind: packet.KindCTS, Src: src, Dst: dst, PairDelay: tau, DataBits: bits}
}

func TestLedgerRTSThenCTSLifecycle(t *testing.T) {
	l, s := ledgerFixture()
	dataTx := 176 * time.Millisecond
	tau := 400 * time.Millisecond

	e := l.ObserveRTS(rtsFrame(2, 3, tau, 2048), 10, dataTx)
	if e.Confirmed {
		t.Fatal("RTS-only exchange confirmed")
	}
	if e.EndSlot(s) != 12 {
		t.Errorf("speculative EndSlot = %d, want 12", e.EndSlot(s))
	}
	if l.QuietUntilSlot() != 12 {
		t.Errorf("QuietUntilSlot = %d, want 12", l.QuietUntilSlot())
	}
	if l.QuietUntilSlotConfirmed() != 0 {
		t.Errorf("QuietUntilSlotConfirmed = %d, want 0", l.QuietUntilSlotConfirmed())
	}

	e2 := l.ObserveCTS(ctsFrame(3, 2, tau, 2048), 11, dataTx)
	if e2 != e {
		t.Fatal("CTS created a second exchange for the same pair")
	}
	if !e.Confirmed {
		t.Fatal("exchange not confirmed by CTS")
	}
	// Data slot 12, data (176ms) + τ (400ms) < |ts| → ack slot 13,
	// end slot 14.
	if got := e.AckSlot(s); got != 13 {
		t.Errorf("AckSlot = %d, want 13", got)
	}
	if got := e.EndSlot(s); got != 14 {
		t.Errorf("EndSlot = %d, want 14", got)
	}
	if l.QuietUntilSlotConfirmed() != 14 {
		t.Errorf("confirmed quiet = %d, want 14", l.QuietUntilSlotConfirmed())
	}

	l.Prune(13)
	if len(l.exchanges) != 1 {
		t.Error("active exchange pruned")
	}
	l.Prune(14)
	if len(l.exchanges) != 0 {
		t.Error("finished exchange kept")
	}
}

func TestLedgerCTSWithoutRTS(t *testing.T) {
	l, s := ledgerFixture()
	e := l.ObserveCTS(ctsFrame(3, 2, 300*time.Millisecond, 1024), 5, 90*time.Millisecond)
	if !e.Confirmed || e.Sender != 2 || e.Receiver != 3 || e.RTSSlot != 4 {
		t.Fatalf("exchange from bare CTS wrong: %+v", e)
	}
	if l.find(2, 3) != e {
		t.Error("Lookup failed")
	}
	if e.DataSlot() != 6 {
		t.Errorf("DataSlot = %d, want 6", e.DataSlot())
	}
	_ = s
}

func TestLedgerRxWindows(t *testing.T) {
	l, s := ledgerFixture()
	tau := 400 * time.Millisecond
	dataTx := 176 * time.Millisecond
	l.ObserveCTS(ctsFrame(3, 2, tau, 2048), 11, dataTx)

	// Receiver 3 is busy receiving data during
	// [StartOf(12)+τ, +dataTx).
	dataStart := s.StartOf(12).Add(tau)
	if !l.RxConflict(3, Interval{dataStart.Add(50 * time.Millisecond), dataStart.Add(60 * time.Millisecond)}) {
		t.Error("no conflict inside receiver's data window")
	}
	if l.RxConflict(3, Interval{dataStart.Add(-20 * time.Millisecond), dataStart.Add(-10 * time.Millisecond)}) {
		t.Error("conflict before data arrives")
	}
	// Sender 2 receives the CTS during [StartOf(11)+τ, +ω).
	ctsAt := s.StartOf(11).Add(tau)
	if !l.RxConflict(2, Interval{ctsAt, ctsAt.Add(time.Millisecond)}) {
		t.Error("no conflict during sender's CTS reception")
	}
	// Sender 2 also receives the Ack (slot 13).
	ackAt := s.StartOf(13).Add(tau)
	if !l.RxConflict(2, Interval{ackAt.Add(time.Millisecond), ackAt.Add(2 * time.Millisecond)}) {
		t.Error("no conflict during sender's Ack reception")
	}
	// A bystander node has no windows.
	if l.RxConflict(9, Interval{dataStart, dataStart.Add(time.Hour)}) {
		t.Error("bystander has rx windows")
	}
}

func TestLedgerSpeculativeWindows(t *testing.T) {
	l, s := ledgerFixture()
	tau := 400 * time.Millisecond
	l.ObserveRTS(rtsFrame(2, 3, tau, 2048), 10, 176*time.Millisecond)
	// Sender 2 expects a CTS in slot 11: that reception is protected
	// even before confirmation.
	ctsAt := s.StartOf(11).Add(tau)
	if !l.RxConflict(2, Interval{ctsAt, ctsAt.Add(time.Millisecond)}) {
		t.Error("speculative sender CTS window unprotected")
	}
	// But no data window exists yet for the receiver.
	dataAt := s.StartOf(12).Add(tau)
	if l.RxConflict(3, Interval{dataAt, dataAt.Add(time.Millisecond)}) {
		t.Error("unconfirmed exchange has a data window")
	}
}

func TestBusyParties(t *testing.T) {
	l, _ := ledgerFixture()
	l.ObserveRTS(rtsFrame(9, 2, 0, 1024), 5, time.Millisecond)
	l.ObserveCTS(ctsFrame(4, 7, 0, 1024), 6, time.Millisecond)
	got := l.BusyParties()
	want := []packet.NodeID{2, 4, 7, 9}
	if len(got) != len(want) {
		t.Fatalf("BusyParties = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("BusyParties = %v, want %v", got, want)
		}
	}
}

func TestIntervalOverlaps(t *testing.T) {
	a := Interval{sim.At(time.Second), sim.At(2 * time.Second)}
	cases := []struct {
		b    Interval
		want bool
	}{
		{Interval{sim.At(0), sim.At(time.Second)}, false},                   // touching start
		{Interval{sim.At(2 * time.Second), sim.At(3 * time.Second)}, false}, // touching end
		{Interval{sim.At(1500 * time.Millisecond), sim.At(1600 * time.Millisecond)}, true},
		{Interval{sim.At(0), sim.At(10 * time.Second)}, true}, // containing
	}
	for i, tc := range cases {
		if a.Overlaps(tc.b) != tc.want {
			t.Errorf("case %d: Overlaps = %v, want %v", i, !tc.want, tc.want)
		}
	}
}

func TestLedgerReusedPairUpdates(t *testing.T) {
	l, _ := ledgerFixture()
	l.ObserveRTS(rtsFrame(2, 3, time.Millisecond, 1024), 10, 90*time.Millisecond)
	l.ObserveRTS(rtsFrame(2, 3, time.Millisecond, 1024), 20, 90*time.Millisecond)
	if len(l.exchanges) != 1 {
		t.Fatalf("Len = %d, want 1 (same pair reuses entry)", len(l.exchanges))
	}
	if l.find(2, 3).RTSSlot != 20 {
		t.Error("retried RTS did not update slot")
	}
}
