package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	e := NewEngine(1)
	var got []Time
	for _, d := range []time.Duration{5 * time.Second, time.Second, 3 * time.Second} {
		at := Epoch.Add(d)
		e.ScheduleAt(at, PriorityMAC, func() { got = append(got, e.Now()) })
	}
	e.Run()
	want := []Time{At(time.Second), At(3 * time.Second), At(5 * time.Second)}
	if len(got) != len(want) {
		t.Fatalf("executed %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d ran at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestEngineTieBreakByPriorityThenSeq(t *testing.T) {
	e := NewEngine(1)
	at := Epoch.Add(time.Second)
	var order []string
	e.ScheduleAt(at, PriorityApp, func() { order = append(order, "app") })
	e.ScheduleAt(at, PriorityPHY, func() { order = append(order, "phy1") })
	e.ScheduleAt(at, PriorityMAC, func() { order = append(order, "mac") })
	e.ScheduleAt(at, PriorityPHY, func() { order = append(order, "phy2") })
	e.Run()
	want := []string{"phy1", "phy2", "mac", "app"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSchedulePastRejected(t *testing.T) {
	e := NewEngine(1)
	e.ScheduleAt(Epoch.Add(time.Second), PriorityMAC, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past succeeded, want a panic")
			}
		}()
		e.ScheduleAt(Epoch, PriorityMAC, func() {})
	})
	e.Run()
}

func TestRunUntilStopsAtHorizonAndResumes(t *testing.T) {
	e := NewEngine(1)
	var ran []int
	for i := 1; i <= 5; i++ {
		i := i
		e.ScheduleIn(time.Duration(i)*time.Second, PriorityMAC, func() { ran = append(ran, i) })
	}
	e.RunUntil(At(3 * time.Second))
	if len(ran) != 3 {
		t.Fatalf("ran %v before horizon, want 3 events", ran)
	}
	if e.Now() != At(3*time.Second) {
		t.Fatalf("Now = %v, want 3s", e.Now())
	}
	e.Run()
	if len(ran) != 5 {
		t.Fatalf("ran %v after resume, want 5 events", ran)
	}
}

func TestRunUntilAdvancesClockWithoutEvents(t *testing.T) {
	e := NewEngine(1)
	e.RunUntil(At(10 * time.Second))
	if e.Now() != At(10*time.Second) {
		t.Fatalf("Now = %v, want 10s", e.Now())
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	e := NewEngine(1)
	depth := 0
	var grow func()
	grow = func() {
		depth++
		if depth < 100 {
			e.ScheduleIn(time.Millisecond, PriorityMAC, grow)
		}
	}
	e.ScheduleIn(0, PriorityMAC, grow)
	e.Run()
	if depth != 100 {
		t.Fatalf("depth = %d, want 100", depth)
	}
	if e.Now() != At(99*time.Millisecond) {
		t.Fatalf("Now = %v, want 99ms", e.Now())
	}
}

func TestNegativeScheduleInClampsToNow(t *testing.T) {
	e := NewEngine(1)
	e.RunUntil(At(time.Second))
	ran := false
	e.ScheduleIn(-5*time.Second, PriorityMAC, func() { ran = true })
	e.Run()
	if !ran {
		t.Error("event with negative delay never ran")
	}
	if e.Now() != At(time.Second) {
		t.Errorf("Now = %v, want 1s", e.Now())
	}
}

func TestRNGStreamsAreStableAndIndependent(t *testing.T) {
	a1 := NewEngine(42).RNG("traffic")
	a2 := NewEngine(42).RNG("traffic")
	b := NewEngine(42).RNG("mobility")
	for i := 0; i < 100; i++ {
		va1, va2 := a1.Int63n(1<<62), a2.Int63n(1<<62)
		if va1 != va2 {
			t.Fatalf("draw %d: same stream diverged: %d vs %d", i, va1, va2)
		}
		if va1 == b.Int63n(1<<62) && i == 0 {
			t.Fatal("distinct streams produced identical first draw")
		}
	}
}

func TestRNGStreamCached(t *testing.T) {
	e := NewEngine(7)
	if e.RNG("x") != e.RNG("x") {
		t.Fatal("RNG stream not cached")
	}
}

func TestExpFloat64RateDisabled(t *testing.T) {
	e := NewEngine(7)
	v := e.RNG("x").ExpFloat64Rate(0)
	if v < 1e300 {
		t.Fatalf("rate 0 should yield +Inf-like value, got %v", v)
	}
}

// Property: for any multiset of (delay, priority) pairs, the engine
// executes them in non-decreasing (time, priority) order and ends with
// Now equal to the max delay.
func TestEngineOrderProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		e := NewEngine(1)
		type key struct {
			at   Time
			prio Priority
		}
		var executed []key
		for _, r := range raw {
			d := time.Duration(r%1000) * time.Millisecond
			prio := Priority(1 + int(r/1000)%4)
			at := Epoch.Add(d)
			e.ScheduleAt(at, prio, func() {
				executed = append(executed, key{e.Now(), prio})
			})
		}
		e.Run()
		if len(executed) != len(raw) {
			return false
		}
		sorted := sort.SliceIsSorted(executed, func(i, j int) bool {
			if executed[i].at != executed[j].at {
				return executed[i].at < executed[j].at
			}
			return executed[i].prio < executed[j].prio
		})
		return sorted
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDeriveSeedStable(t *testing.T) {
	if deriveSeed(1, keyOf("a")) != deriveSeed(1, keyOf("a")) {
		t.Error("deriveSeed not deterministic")
	}
	if deriveSeed(1, keyOf("a")) == deriveSeed(2, keyOf("a")) {
		t.Error("deriveSeed ignores engine seed")
	}
	if deriveSeed(1, keyOf("a")) == deriveSeed(1, keyOf("b")) {
		t.Error("deriveSeed ignores stream name")
	}
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	const batch = 1024
	e := NewEngine(1)
	r := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < batch; j++ {
			e.ScheduleIn(time.Duration(r.Intn(1000))*time.Microsecond, PriorityMAC, func() {})
		}
		e.Run()
	}
}
