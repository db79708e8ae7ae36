package sim

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// RunUntil must stop before a lane head past the horizon without
// disturbing the lane, and a later RunUntil must resume in exactly the
// order an uninterrupted run takes.
func TestRunUntilStopsBeforeLaneHead(t *testing.T) {
	build := func() (*Engine, *[]int) {
		e := NewEngine(1)
		var ran []int
		l := e.NewLane(PriorityPHY)
		base := e.Reserve(4)
		for i := 0; i < 4; i++ {
			i := i
			l.Push(At(time.Duration(2*i+1)*time.Second), base+uint64(i), func() { ran = append(ran, i) })
		}
		for i := 0; i < 4; i++ {
			i := i
			e.ScheduleIn(time.Duration(2*i)*time.Second, PriorityMAC, func() { ran = append(ran, 10+i) })
		}
		return e, &ran
	}
	ref, want := build()
	ref.Run()

	e, got := build()
	e.RunUntil(At(2500 * time.Millisecond))
	if !slices.Equal(*got, []int{10, 0, 11}) {
		t.Fatalf("ran %v before the 2.5 s horizon, want [10 0 11]", *got)
	}
	if e.Now() != At(2500*time.Millisecond) {
		t.Errorf("Now = %v, want the horizon", e.Now())
	}
	if e.Pending() != 5 || e.LoopStats().PendingRaw != 3 {
		t.Errorf("Pending/PendingRaw = %d/%d at the horizon, want 5/3", e.Pending(), e.LoopStats().PendingRaw)
	}
	e.RunUntil(At(time.Hour))
	if !slices.Equal(*got, *want) {
		t.Errorf("resumed order %v, uninterrupted %v", *got, *want)
	}
}

// A lane key smaller than the last one pushed would run out of order;
// Push must refuse it.
func TestLanePushRejectsDecreasingKey(t *testing.T) {
	e := NewEngine(1)
	l := e.NewLane(PriorityPHY)
	base := e.Reserve(2)
	l.Push(At(time.Second), base+1, func() {})
	defer func() {
		if recover() == nil {
			t.Error("pushing a smaller key did not panic")
		}
	}()
	l.Push(At(time.Second), base, func() {})
}

// A lane that never drains, like the slot grid, must run on a bounded
// backing array.
func TestLaneReusesRunPrefix(t *testing.T) {
	e := NewEngine(1)
	l := e.NewLane(PriorityMAC)
	const nodes, slots = 8, 1000
	var tick func()
	tick = func() {
		if e.Now() < At(slots*time.Millisecond) {
			l.Push(e.Now().Add(time.Millisecond), e.Reserve(1), tick)
		}
	}
	for i := 0; i < nodes; i++ {
		l.Push(0, e.Reserve(1), tick)
	}
	if n := e.Run(); n != nodes*(slots+1) {
		t.Fatalf("ran %d ticks, want %d", n, nodes*(slots+1))
	}
	if c := cap(l.items); c > 4*nodes {
		t.Errorf("lane backing array grew to %d items for %d in flight", c, nodes)
	}
}

// FuzzLaneMatchesHeap checks the lane's one promise: items run exactly
// where the same events, scheduled one by one under the same seqs, run.
// A scenario mixes plain events (some spawning more work as they run),
// broadcast-like batches whose lanes are pushed in
// time order under seqs reserved in generation order, with each item
// queueing a follow-up on a second lane a fixed delay later, and a
// slot-grid lane whose items re-queue themselves one period on. The
// run is cut at random horizons. The lane engine must execute the
// identical sequence as the heap-only engine.
func FuzzLaneMatchesHeap(f *testing.F) {
	for _, seed := range []int64{0, 1, 2, 42, 1 << 40} {
		f.Add(seed, uint8(20), uint8(4))
	}
	f.Fuzz(func(t *testing.T, seed int64, ops, grid uint8) {
		heap := runLaneScenario(seed, int(ops), int(grid%16), false)
		lane := runLaneScenario(seed, int(ops), int(grid%16), true)
		if !slices.Equal(heap, lane) {
			t.Fatalf("lane order diverged from heap order\nheap %v\nlane %v", heap, lane)
		}
	})
}

// runLaneScenario plays the scenario FuzzLaneMatchesHeap describes and
// returns the IDs of the events in the order they ran, followed by the
// executed count. With lanes false every item is a plain event.
func runLaneScenario(seed int64, ops, grid int, lanes bool) []int {
	r := rand.New(rand.NewSource(seed))
	e := NewEngine(1)
	var order []int
	id := 0
	rec := func() func() {
		k := id
		id++
		return func() { order = append(order, k) }
	}
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	prio := func() Priority { return Priority(1 + r.Intn(4)) }

	// batch queues k items at now+[0, 40) ms under seqs drawn in
	// generation order; each queues a follow-up dur after it runs, on a
	// second lane.
	batch := func() {
		k, p, dur := 1+r.Intn(8), prio(), ms(1+r.Intn(20))
		type item struct {
			at  Time
			seq uint64
			fn  func()
		}
		var items []item
		var starts, ends *Lane
		var base uint64
		if lanes {
			starts, ends, base = e.NewLane(p), e.NewLane(p), e.Reserve(k)
		}
		for i := 0; i < k; i++ {
			at, run, follow := e.Now().Add(ms(r.Intn(40))), rec(), rec()
			if !lanes {
				e.ScheduleAt(at, p, func() { run(); e.ScheduleIn(dur, p, follow) })
				continue
			}
			items = append(items, item{at, base + uint64(i), func() {
				run()
				ends.Push(e.Now().Add(dur), e.Reserve(1), follow)
			}})
		}
		slices.SortFunc(items, func(a, b item) int {
			return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.seq, b.seq))
		})
		for _, it := range items {
			starts.Push(it.at, it.seq, it.fn)
		}
	}

	plain := func() {
		at, p, run := e.Now().Add(ms(r.Intn(60))), prio(), rec()
		spawn := r.Intn(4) == 0
		e.ScheduleAt(at, p, func() {
			run()
			if spawn {
				batch()
			}
		})
	}

	var gridLane *Lane
	if lanes {
		gridLane = e.NewLane(PriorityMAC)
	}
	const period, slots = 10 * time.Millisecond, 20
	for i := 0; i < grid; i++ {
		tick := rec()
		var fn func()
		fn = func() {
			tick()
			if next := e.Now().Add(period); next < At(slots*period) {
				if lanes {
					gridLane.Push(next, e.Reserve(1), fn)
				} else {
					e.ScheduleAt(next, PriorityMAC, fn)
				}
			}
		}
		if lanes {
			gridLane.Push(0, e.Reserve(1), fn)
		} else {
			e.ScheduleAt(0, PriorityMAC, fn)
		}
	}

	for i := 0; i < ops; i++ {
		switch r.Intn(3) {
		case 0:
			plain()
		case 1:
			batch()
		default:
			e.RunUntil(e.Now().Add(ms(r.Intn(30))))
		}
	}
	e.Run()
	return append(order, int(e.Executed()))
}
