package phy

import (
	"testing"
	"time"

	"ewmac/internal/packet"
	"ewmac/internal/sim"
)

// These tests pin the per-arrival path to zero allocations in steady
// state: arrival records come from the modem's free list with their
// end-of-arrival handler already bound, and the ambient noise is read
// from the modem's cache. The channel's broadcast pin (one allocation
// per broadcast, the shared frame view) covers the fan-out above it.

// nopListener discards modem events without allocating.
type nopListener struct{}

func (nopListener) OnFrameReceived(*packet.Frame)         {}
func (nopListener) OnFrameLost(*packet.Frame, LossReason) {}
func (nopListener) OnTxDone(*packet.Frame)                {}

func newAllocModem(t *testing.T) (*sim.Engine, *Modem) {
	t.Helper()
	eng := sim.NewEngine(1)
	m, _ := newTestModem(t, eng, 3, &fakeMedium{eng: eng})
	m.SetListener(nopListener{})
	return eng, m
}

func assertZeroAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	f() // fill the free list and the engine's event pool
	if avg := testing.AllocsPerRun(200, f); avg != 0 {
		t.Errorf("%s: %.2f allocs per steady-state cycle, want 0", name, avg)
	}
}

func TestArrivalCycleZeroAlloc(t *testing.T) {
	eng, m := newAllocModem(t)
	f := ctrlFrame(packet.KindRTS, 1, 3)
	g := ctrlFrame(packet.KindRTS, 2, 3)
	dur := 100 * time.Millisecond
	assertZeroAllocs(t, "lone arrival", func() {
		m.BeginArrival(f, 140, dur, true)
		eng.Run()
	})
	assertZeroAllocs(t, "colliding arrivals", func() {
		m.BeginArrival(f, 130, dur, true)
		m.BeginArrival(g, 130, dur, true)
		eng.Run()
	})
	if s := m.Stats(); s.FramesRx == 0 || s.Collisions == 0 {
		t.Fatalf("cycles did not exercise reception and collision: %+v", s)
	}
}

func TestInjectInterferenceCycleZeroAlloc(t *testing.T) {
	eng, m := newAllocModem(t)
	f := ctrlFrame(packet.KindRTS, 1, 3)
	dur := 100 * time.Millisecond
	assertZeroAllocs(t, "noise burst", func() {
		m.InjectInterference(140, dur)
		eng.Run()
	})
	assertZeroAllocs(t, "noise over a frame", func() {
		m.BeginArrival(f, 140, dur, true)
		m.InjectInterference(140, dur)
		eng.Run()
	})
}
