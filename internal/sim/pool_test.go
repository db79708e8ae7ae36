package sim

import (
	"testing"
	"time"
)

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
