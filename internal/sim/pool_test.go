package sim

import (
	"testing"
	"time"
)

// A handle must go dead once its event runs, even after the pooled
// entry is reused for a brand-new event: Cancel through the stale
// handle must not kill the new occupant.
func TestStaleHandleCannotCancelRecycledEvent(t *testing.T) {
	e := NewEngine(1)
	first := e.ScheduleIn(time.Millisecond, PriorityMAC, func() {})
	e.Run()
	if first.Pending() {
		t.Fatal("handle still pending after its event ran")
	}

	ran := false
	second := e.ScheduleIn(time.Millisecond, PriorityMAC, func() { ran = true })
	if second.ev != first.ev {
		t.Fatal("pool did not recycle the event entry")
	}
	if first.Cancel() {
		t.Error("stale handle reported a successful cancel")
	}
	if !second.Pending() {
		t.Error("stale cancel killed the recycled event")
	}
	e.Run()
	if !ran {
		t.Error("recycled event did not run")
	}
}

// Zero-value handles are inert.
func TestZeroHandleSafe(t *testing.T) {
	var h Handle
	if h.Pending() {
		t.Error("zero handle pending")
	}
	if h.Cancel() {
		t.Error("zero handle cancelled something")
	}
}

// Pending must count live events only; PendingRaw keeps the queue depth.
func TestPendingExcludesCancelled(t *testing.T) {
	e := NewEngine(1)
	var hs []Handle
	for i := 0; i < 10; i++ {
		hs = append(hs, e.ScheduleIn(time.Duration(i+1)*time.Millisecond, PriorityMAC, func() {}))
	}
	for i := 0; i < 4; i++ {
		hs[i].Cancel()
	}
	if got := e.Pending(); got != 6 {
		t.Errorf("Pending = %d, want 6", got)
	}
	if got := e.PendingRaw(); got != 10 {
		t.Errorf("PendingRaw = %d, want 10", got)
	}
	ls := e.LoopStats()
	if ls.Pending != 6 || ls.PendingRaw != 10 {
		t.Errorf("LoopStats pending = %d/%d, want 6/10", ls.Pending, ls.PendingRaw)
	}
	e.Run()
	if e.Pending() != 0 || e.PendingRaw() != 0 {
		t.Errorf("queue not drained: %d/%d", e.Pending(), e.PendingRaw())
	}
}

// The pool must reach zero steady-state allocations: after a warm-up
// batch, scheduling+running the same batch size again allocates nothing.
func TestScheduleSteadyStateAllocs(t *testing.T) {
	e := NewEngine(1)
	const batch = 256
	fn := func() {}
	run := func() {
		for i := 0; i < batch; i++ {
			e.ScheduleIn(time.Duration(i)*time.Microsecond, PriorityMAC, fn)
		}
		e.Run()
	}
	run() // warm pool + heap capacity
	avg := testing.AllocsPerRun(10, run)
	if avg != 0 {
		t.Errorf("steady-state allocs per batch = %v, want 0", avg)
	}
}
