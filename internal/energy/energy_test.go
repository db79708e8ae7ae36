package energy

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"ewmac/internal/sim"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMeterIntegratesStates(t *testing.T) {
	p := Profile{TxW: 2, RxW: 1, IdleW: 0.1, SleepW: 0.01}
	m := NewMeter(p, sim.Epoch)

	mustSet := func(at time.Duration, s State) {
		t.Helper()
		if err := m.SetState(sim.At(at), s); err != nil {
			t.Fatal(err)
		}
	}
	mustSet(10*time.Second, StateTx)   // 10 s idle
	mustSet(12*time.Second, StateRx)   // 2 s tx
	mustSet(15*time.Second, StateIdle) // 3 s rx
	mustSet(20*time.Second, StateSleep)
	b, err := m.Snapshot(sim.At(30 * time.Second)) // 5 s idle + 10 s sleep
	if err != nil {
		t.Fatal(err)
	}
	if !almost(b.IdleJ, 0.1*15) {
		t.Errorf("IdleJ = %v, want 1.5", b.IdleJ)
	}
	if !almost(b.TxJ, 2*2) {
		t.Errorf("TxJ = %v, want 4", b.TxJ)
	}
	if !almost(b.RxJ, 1*3) {
		t.Errorf("RxJ = %v, want 3", b.RxJ)
	}
	if !almost(b.SleepJ, 0.01*10) {
		t.Errorf("SleepJ = %v, want 0.1", b.SleepJ)
	}
	if !almost(b.Total(), 1.5+4+3+0.1) {
		t.Errorf("Total = %v", b.Total())
	}
}

func TestMeterRejectsBackwardTime(t *testing.T) {
	m := NewMeter(DefaultProfile(), sim.At(10*time.Second))
	if err := m.SetState(sim.At(5*time.Second), StateTx); err == nil {
		t.Error("backward SetState accepted")
	}
	if _, err := m.Snapshot(sim.At(time.Second)); err == nil {
		t.Error("backward Snapshot accepted")
	}
}

func TestRepeatedSnapshotIdempotent(t *testing.T) {
	m := NewMeter(DefaultProfile(), sim.Epoch)
	at := sim.At(7 * time.Second)
	a, _ := m.Snapshot(at)
	b, _ := m.Snapshot(at)
	if a != b {
		t.Errorf("same-instant snapshots differ: %v vs %v", a, b)
	}
}

func TestBreakdownSub(t *testing.T) {
	a := Breakdown{IdleJ: 11, RxJ: 22, TxJ: 33, SleepJ: 44}
	b := Breakdown{IdleJ: 10, RxJ: 20, TxJ: 30, SleepJ: 40}
	got := a.Sub(b)
	if got != (Breakdown{IdleJ: 1, RxJ: 2, TxJ: 3, SleepJ: 4}) {
		t.Errorf("Sub = %+v", got)
	}
}

func TestProfileValidate(t *testing.T) {
	if err := DefaultProfile().Validate(); err != nil {
		t.Errorf("default profile invalid: %v", err)
	}
	if err := (Profile{TxW: -1}).Validate(); err == nil {
		t.Error("negative power accepted")
	}
}

// Property: energy conservation — for any state schedule, the breakdown
// total equals power-weighted elapsed time, and each component is
// non-negative and non-decreasing.
func TestMeterConservationProperty(t *testing.T) {
	p := Profile{TxW: 2, RxW: 1, IdleW: 0.1, SleepW: 0.01}
	f := func(steps []uint8) bool {
		m := NewMeter(p, sim.Epoch)
		now := sim.Epoch
		var wantTotal float64
		prevTotal := 0.0
		for _, s := range steps {
			dt := time.Duration(s%100) * time.Millisecond
			state := State(s%4) + 1
			wantTotal += p.watts(m.state) * dt.Seconds()
			now = now.Add(dt)
			if err := m.SetState(now, state); err != nil {
				return false
			}
			b, err := m.Snapshot(now)
			if err != nil {
				return false
			}
			if b.IdleJ < 0 || b.RxJ < 0 || b.TxJ < 0 || b.SleepJ < 0 {
				return false
			}
			if b.Total()+1e-12 < prevTotal {
				return false
			}
			prevTotal = b.Total()
		}
		b, err := m.Snapshot(now)
		if err != nil {
			return false
		}
		return math.Abs(b.Total()-wantTotal) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestStateString(t *testing.T) {
	if StateIdle.String() != "idle" || StateTx.String() != "tx" ||
		StateRx.String() != "rx" || StateSleep.String() != "sleep" {
		t.Error("State.String changed")
	}
}
