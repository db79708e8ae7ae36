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

// Mass-cancelling above the compaction threshold must shrink the raw
// queue without disturbing the surviving events or their order.
func TestCompactionPreservesOrder(t *testing.T) {
	e := NewEngine(1)
	const n = 200
	hs := make([]Handle, n)
	for i := 0; i < n; i++ {
		i := i
		hs[i] = e.ScheduleIn(time.Duration(i+1)*time.Millisecond, PriorityMAC, func() {
			_ = i
		})
	}
	var order []int
	for i := 0; i < n; i++ {
		i := i
		// Replace: cancel original and track execution order via fresh events.
		hs[i].Cancel()
	}
	if e.PendingRaw() >= n {
		t.Errorf("compaction never fired: raw depth %d", e.PendingRaw())
	}
	if e.Pending() != 0 {
		t.Errorf("live count %d after cancelling all", e.Pending())
	}
	for i := n - 1; i >= 0; i-- {
		i := i
		e.ScheduleIn(time.Duration(i+1)*time.Millisecond, PriorityMAC, func() {
			order = append(order, i)
		})
	}
	e.Run()
	if len(order) != n {
		t.Fatalf("ran %d events, want %d", len(order), n)
	}
	for i := 1; i < n; i++ {
		if order[i] < order[i-1] {
			t.Fatalf("out of order at %d: %v then %v", i, order[i-1], order[i])
		}
	}
}

// A heap whose lanes hold more live items than it has entries must
// still compact once cancelled timers are most of its entries.
func TestCompactionWithLanes(t *testing.T) {
	e := NewEngine(1)
	const items, timers, cancel = 500, 100, 80
	l := e.NewLane(PriorityPHY)
	base := e.Reserve(items)
	for i := 0; i < items; i++ {
		l.Push(At(time.Duration(i)*time.Microsecond), base+uint64(i), func() {})
	}
	hs := make([]Handle, timers)
	for i := range hs {
		hs[i] = e.ScheduleIn(time.Duration(i+1)*time.Millisecond, PriorityMAC, func() {})
	}
	for _, h := range hs[:cancel] {
		h.Cancel()
	}
	// The 51st cancel tips the 101-entry heap: compaction leaves the
	// lane and 49 live timers, below the size where it runs again.
	if got := e.PendingRaw(); got != 50 {
		t.Errorf("PendingRaw = %d after cancelling %d of %d timers, want 50", got, cancel, timers)
	}
	if got, want := e.Pending(), items+timers-cancel; got != want {
		t.Errorf("Pending = %d, want %d", got, want)
	}
	if n := e.Run(); n != items+timers-cancel {
		t.Errorf("ran %d events, want %d", n, items+timers-cancel)
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
