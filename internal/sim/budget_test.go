package sim

import (
	"errors"
	"testing"
	"time"
)

func TestBudgetMaxEvents(t *testing.T) {
	e := NewEngine(1)
	e.SetBudget(Budget{MaxEvents: 10})
	for i := 0; i < 50; i++ {
		d := time.Duration(i) * time.Millisecond
		e.ScheduleIn(d, PriorityMAC, func() {})
	}
	n := e.Run()
	if n != 10 {
		t.Fatalf("executed %d events, want 10", n)
	}
	err := e.BudgetErr()
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("BudgetErr = %v, want ErrBudgetExceeded", err)
	}
	var be *BudgetError
	if !errors.As(err, &be) || be.Reason != BudgetMaxEvents {
		t.Fatalf("BudgetErr = %#v, want reason %q", err, BudgetMaxEvents)
	}
	if be.Events != 10 {
		t.Errorf("Events = %d, want 10", be.Events)
	}
	// The 40 unexecuted events stay pending (the aborting event never
	// left the heap), and further Run calls refuse to continue.
	if got := e.Pending(); got != 40 {
		t.Errorf("Pending = %d, want 40", got)
	}
	if n := e.Run(); n != 0 {
		t.Errorf("Run after budget abort executed %d events, want 0", n)
	}
}

func TestBudgetLivelockDetector(t *testing.T) {
	e := NewEngine(1)
	e.SetBudget(Budget{LivelockEvents: 100})
	// A self-rescheduling event that never advances simulation time:
	// the canonical livelock (a protocol spinning at one instant).
	var spin func()
	spin = func() {
		e.ScheduleAt(e.Now(), PriorityMAC, spin)
	}
	e.ScheduleAt(At(time.Second), PriorityMAC, spin)
	e.Run()
	var be *BudgetError
	if err := e.BudgetErr(); !errors.As(err, &be) || be.Reason != BudgetLivelock {
		t.Fatalf("BudgetErr = %v, want livelock", err)
	}
	if got := be.At; got != At(time.Second) {
		t.Errorf("livelock detected at %v, want %v", got, At(time.Second))
	}
}

func TestBudgetLivelockAllowsBusyInstants(t *testing.T) {
	// Many events at one instant, below the window, must not trip: the
	// detector watches for *unbounded* same-instant execution.
	e := NewEngine(1)
	e.SetBudget(Budget{LivelockEvents: 1000})
	for i := 0; i < 500; i++ {
		e.ScheduleAt(At(time.Second), PriorityMAC, func() {})
		e.ScheduleAt(At(2*time.Second), PriorityMAC, func() {})
	}
	if n := e.Run(); n != 1000 {
		t.Fatalf("executed %d, want 1000", n)
	}
	if err := e.BudgetErr(); err != nil {
		t.Fatalf("unexpected budget abort: %v", err)
	}
}

func TestBudgetDeadline(t *testing.T) {
	e := NewEngine(1)
	e.SetBudget(Budget{Deadline: time.Nanosecond})
	// Enough events to reach the throttled deadline check (every
	// deadlineCheckMask+1 events, and at event 0).
	for i := 0; i < 10; i++ {
		e.ScheduleIn(time.Duration(i)*time.Millisecond, PriorityMAC, func() {})
	}
	time.Sleep(time.Millisecond) // guarantee the wall clock moved
	e.Run()
	var be *BudgetError
	if err := e.BudgetErr(); !errors.As(err, &be) || be.Reason != BudgetDeadline {
		t.Fatalf("BudgetErr = %v, want deadline", err)
	}
}

func TestBudgetRunUntilDoesNotAdvancePastAbort(t *testing.T) {
	e := NewEngine(1)
	e.SetBudget(Budget{MaxEvents: 1})
	e.ScheduleIn(time.Second, PriorityMAC, func() {})
	e.ScheduleIn(2*time.Second, PriorityMAC, func() {})
	e.RunUntil(At(time.Minute))
	if e.BudgetErr() == nil {
		t.Fatal("expected budget abort")
	}
	if e.Now() >= At(time.Minute) {
		t.Errorf("Now = %v advanced to the horizon despite the abort", e.Now())
	}
}

func TestBudgetEnabled(t *testing.T) {
	if z := (Budget{}); z.Enabled() {
		t.Error("zero budget reports enabled")
	}
	for _, b := range []Budget{{Deadline: time.Second}, {MaxEvents: 100}, {LivelockEvents: 10}} {
		if !b.Enabled() {
			t.Errorf("%+v reports disabled", b)
		}
	}
}

func TestSetBudgetClearsAbort(t *testing.T) {
	e := NewEngine(1)
	e.SetBudget(Budget{MaxEvents: 1})
	e.ScheduleIn(time.Millisecond, PriorityMAC, func() {})
	e.ScheduleIn(2*time.Millisecond, PriorityMAC, func() {})
	e.Run()
	if e.BudgetErr() == nil {
		t.Fatal("expected abort")
	}
	e.SetBudget(Budget{})
	if e.BudgetErr() != nil {
		t.Fatal("SetBudget did not clear the abort")
	}
	if n := e.Run(); n != 1 {
		t.Fatalf("drain after reset executed %d events, want 1", n)
	}
}

// A budget abort with a lane's entry on top must leave the lane intact:
// Pending counts every item still queued, and none has run.
func TestBudgetAbortLeavesLaneItemsPending(t *testing.T) {
	e := NewEngine(1)
	e.SetBudget(Budget{MaxEvents: 3})
	l := e.NewLane(PriorityPHY)
	ran := 0
	base := e.Reserve(8)
	for i := 0; i < 8; i++ {
		l.Push(At(time.Duration(i)*time.Millisecond), base+uint64(i), func() { ran++ })
	}
	e.ScheduleIn(time.Second, PriorityMAC, func() { ran++ })
	if n := e.Run(); n != 3 || ran != 3 {
		t.Fatalf("Run executed %d (ran %d), want 3", n, ran)
	}
	if e.BudgetErr() == nil {
		t.Fatal("no budget abort")
	}
	if got := e.Pending(); got != 6 {
		t.Errorf("Pending = %d, want 6 (5 lane items and the timer)", got)
	}
	if got := e.LoopStats().PendingRaw; got != 2 {
		t.Errorf("PendingRaw = %d, want 2 heap entries", got)
	}
	if e.Now() != At(2*time.Millisecond) {
		t.Errorf("Now = %v, want the last executed item's instant", e.Now())
	}
}
