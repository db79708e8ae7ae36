package sim

import (
	"fmt"
	"time"
)

// Priority orders events that are scheduled for the same instant.
// Lower values run first. The bands below keep physical-layer
// bookkeeping strictly ahead of protocol reactions within an instant.
type Priority int32

const (
	// PriorityPHY is for physical-layer events (arrival starts/ends).
	PriorityPHY Priority = 1
	// PriorityMAC is for protocol state-machine events (slot ticks, timers).
	PriorityMAC Priority = 2
	// PriorityApp is for application-level events (traffic generation).
	PriorityApp Priority = 3
	// PriorityObserver is for metric sampling; it always sees settled state.
	PriorityObserver Priority = 4
)

// event is a heap entry, pooled or a Lane's. Events cannot be
// cancelled: a timer that may go stale checks, when it runs, that the
// state it was armed for is still current.
type event struct {
	at   Time
	seq  uint64
	fn   func()
	lane *Lane // non-nil for a lane's entry, which is never pooled
	prio Priority
}

// eventLess is the total order events execute in: time, then priority,
// then scheduling sequence. seq is unique, so the order is strict — the
// execution sequence cannot depend on heap layout.
func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	return a.seq < b.seq
}

// eventSlab is how many entries alloc carves from one allocation when
// the free list is empty, so the pool grows to the in-flight high-water
// mark in a few allocations instead of one per entry.
const eventSlab = 64

// Engine is a deterministic discrete-event scheduler.
type Engine struct {
	now    Time
	events []*event // binary min-heap ordered by eventLess
	free   []*event // recycled entries; schedule pops from here first
	slab   []event  // fresh entries not yet handed out
	// live counts queued events not yet executed, lane items included.
	live     int
	seq      uint64
	executed uint64
	seed     int64
	streams  map[streamKey]*RNG
	horizon  Time // 0 means unbounded
	// wallAccum / runStart track wall-clock time spent inside Run for
	// LoopStats. They are touched only at Run entry/exit, never in the
	// per-event loop, so instrumentation costs the hot path nothing.
	wallAccum time.Duration
	runStart  time.Time
	inRun     bool
	// budget fields (see budget.go): checks run only when budgetOn, so
	// unbudgeted runs pay one predictable branch per event. instAt /
	// instCount / instValid drive the livelock detector.
	budget    Budget
	budgetOn  bool
	budgetErr *BudgetError
	instAt    Time
	instCount uint64
	instValid bool
}

// LoopStats is a snapshot of event-loop health, polled by the
// observability sampler (the engine itself never pushes events).
type LoopStats struct {
	// Now is the current simulation time.
	Now Time
	// Executed counts events run since engine construction.
	Executed uint64
	// Pending is the number of events waiting to run, counting every
	// lane item.
	Pending int
	// PendingRaw is the number of heap entries; a lane takes one entry
	// however many items it holds.
	PendingRaw int
	// Wall is cumulative wall-clock time spent inside Run.
	Wall time.Duration
}

// LoopStats returns the current event-loop snapshot. It is safe to
// call from inside a running event (the usual case: a sampler event).
func (e *Engine) LoopStats() LoopStats {
	wall := e.wallAccum
	if e.inRun {
		wall += time.Since(e.runStart)
	}
	return LoopStats{
		Now:        e.now,
		Executed:   e.executed,
		Pending:    e.live,
		PendingRaw: len(e.events),
		Wall:       wall,
	}
}

// NewEngine returns an engine whose RNG streams all derive from seed.
func NewEngine(seed int64) *Engine {
	return &Engine{
		seed:    seed,
		streams: make(map[streamKey]*RNG),
	}
}

// Now reports the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Executed reports how many events have run so far.
func (e *Engine) Executed() uint64 { return e.executed }

// Pending reports how many events are waiting to run, counting every
// lane item.
func (e *Engine) Pending() int { return e.live }

// Reserve hands out n consecutive sequence numbers, for Lane items,
// and returns the first.
func (e *Engine) Reserve(n int) uint64 {
	e.seq += uint64(n)
	return e.seq - uint64(n)
}

// alloc takes an entry from the free list, or mints one from the slab.
func (e *Engine) alloc() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	if len(e.slab) == 0 {
		e.slab = make([]event, eventSlab)
	}
	ev := &e.slab[0]
	e.slab = e.slab[1:]
	return ev
}

// recycle returns the entry to the free list.
func (e *Engine) recycle(ev *event) {
	ev.fn = nil
	e.free = append(e.free, ev)
}

// push inserts ev into the heap (sift-up).
func (e *Engine) push(ev *event) {
	h := append(e.events, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	e.events = h
}

// pop removes and returns the earliest event (sift-down).
func (e *Engine) pop() *event {
	h := e.events
	n := len(h) - 1
	top := h[0]
	h[0] = h[n]
	h[n] = nil
	h = h[:n]
	e.events = h
	e.siftDown(0)
	return top
}

func (e *Engine) siftDown(i int) {
	h := e.events
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		small := l
		if r := l + 1; r < n && eventLess(h[r], h[l]) {
			small = r
		}
		if !eventLess(h[small], h[i]) {
			return
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
}

// ScheduleAt queues fn to run at instant at with the given priority.
// It panics if at is earlier than Now: every caller computes the
// instant from the present, and one that lands in the past is a bug.
// Steady state (pool warm, queue capacity reached) it performs no
// allocations.
func (e *Engine) ScheduleAt(at Time, prio Priority, fn func()) {
	if at < e.now {
		panic(fmt.Sprintf("sim: event scheduled in the past: at %v, now %v", at, e.now))
	}
	ev := e.alloc()
	ev.at = at
	ev.prio = prio
	ev.seq = e.seq
	ev.fn = fn
	e.seq++
	e.live++
	e.push(ev)
}

// ScheduleIn queues fn to run d after Now. Negative d is clamped to zero
// so callers computing residual delays do not have to special-case
// rounding.
func (e *Engine) ScheduleIn(d time.Duration, prio Priority, fn func()) {
	if d < 0 {
		d = 0
	}
	e.ScheduleAt(e.now.Add(d), prio, fn)
}

// Run executes events in order until the queue is empty or RunUntil's
// horizon is reached. It returns the number of events executed during
// this call.
func (e *Engine) Run() uint64 {
	if e.budgetErr != nil {
		// A budget abort is terminal for this engine: the stream was cut
		// mid-flight and resuming would silently produce a half-run.
		return 0
	}
	if !e.inRun {
		// Runs can nest only via buggy reentrancy; guard anyway so the
		// wall-clock accounting never double-counts.
		e.inRun = true
		e.runStart = time.Now()
		defer func() {
			e.wallAccum += time.Since(e.runStart)
			e.inRun = false
		}()
	}
	var n uint64
	for len(e.events) > 0 {
		// The top entry leaves the heap only once it runs, so a stop at
		// the horizon or a budget abort leaves the queue as it was.
		ev := e.events[0]
		if e.horizon != 0 && ev.at > e.horizon {
			// Past the horizon: stop so a later Run/RunUntil call can
			// resume from here.
			e.now = e.horizon
			break
		}
		if ev.at < e.now {
			panic(fmt.Sprintf("sim: time went backwards: event at %v, now %v", ev.at, e.now))
		}
		if e.budgetOn {
			if berr := e.checkBudget(ev.at); berr != nil {
				e.budgetErr = berr
				break
			}
		}
		e.now = ev.at
		fn := ev.fn
		if ev.lane != nil {
			fn = ev.lane.advance()
		} else {
			// Recycle before running: fn may immediately reuse the slot
			// for a new event.
			e.pop()
			e.recycle(ev)
		}
		e.live--
		e.executed++
		n++
		fn()
	}
	return n
}

// RunUntil executes events up to and including instant t, then stops with
// Now advanced to exactly t (even if no event lands there).
func (e *Engine) RunUntil(t Time) uint64 {
	if t < e.now {
		return 0
	}
	prev := e.horizon
	e.horizon = t
	n := e.Run()
	e.horizon = prev
	// A budget abort leaves Now at the abort instant rather than
	// claiming the full window was simulated.
	if e.budgetErr == nil && e.now < t {
		e.now = t
	}
	return n
}
