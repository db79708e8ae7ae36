package fault

import (
	"testing"
	"time"

	"ewmac/internal/sim"
)

func TestClockDrift(t *testing.T) {
	c := oscillator{offset: 50 * time.Millisecond, skewPPM: 20}
	at := sim.At(1000 * time.Second)
	got := c.local(at)
	// 20 ppm over 1000 s = 20 ms, plus the 50 ms offset.
	want := 1000*time.Second + 50*time.Millisecond + 20*time.Millisecond
	if diff := got - want; diff < -time.Microsecond || diff > time.Microsecond {
		t.Errorf("local = %v, want %v", got, want)
	}
	perfect := oscillator{}
	if perfect.local(at) != 1000*time.Second {
		t.Error("zero oscillator is not the identity")
	}
}

func TestDriftClockLocalAndTrueTime(t *testing.T) {
	c := NewDriftClock(10*time.Millisecond, 100) // +10ms, +100 ppm
	at := sim.At(100 * time.Second)
	local := c.Local(at)
	// 100 ppm over 100 s accumulates 10 ms, plus the 10 ms offset.
	want := 100*time.Second + 20*time.Millisecond
	if local != want {
		t.Errorf("Local = %v, want %v", local, want)
	}
	// TrueTime inverts Local to within float rounding.
	back := c.TrueTime(local)
	if d := back.Sub(at); d < -time.Microsecond || d > time.Microsecond {
		t.Errorf("TrueTime(Local(t)) off by %v", d)
	}
}

func TestDriftClockSyncDisciplines(t *testing.T) {
	c := NewDriftClock(50*time.Millisecond, 200)
	at := sim.At(30 * time.Second)
	if c.Err(at) == 0 {
		t.Fatal("undisciplined clock reports zero error")
	}
	c.Sync(at)
	if err := c.Err(at); err != 0 {
		t.Errorf("error %v immediately after sync", err)
	}
	// Skew re-accumulates after the sync: 200 ppm over 10 s = 2 ms.
	later := at.Add(10 * time.Second)
	if err := c.Err(later); err != 2*time.Millisecond {
		t.Errorf("re-accumulated error = %v, want 2ms", err)
	}
}

func TestDriftClockSyncLoss(t *testing.T) {
	c := NewDriftClock(0, 500)
	c.Sync(sim.At(10 * time.Second))
	c.Desync(true)
	if !c.lost {
		t.Fatal("lost false after Desync(true)")
	}
	at := sim.At(60 * time.Second)
	before := c.Err(at)
	c.Sync(at) // must be ignored during the episode
	if c.Err(at) != before {
		t.Error("Sync disciplined a clock inside a sync-loss episode")
	}
	c.Desync(false)
	c.Sync(at)
	if c.Err(at) != 0 {
		t.Error("Sync ineffective after the episode ended")
	}
}
