package sim

import (
	"fmt"
	"runtime"
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

// entry is a heap entry. It holds no pointer, so sifting the heap
// runs without GC write barriers and its backing array is never
// scanned. ref names what runs: a slot in the engine's func table when
// non-negative, or lane ^ref when negative. Events cannot be
// cancelled: a timer that may go stale checks, when it runs, that the
// state it was armed for is still current.
type entry struct {
	at   Time
	seq  uint64
	prio Priority
	ref  int32
}

// eventLess is the total order events execute in: time, then priority,
// then scheduling sequence. seq is unique, so the order is strict — the
// execution sequence cannot depend on heap layout.
func eventLess(a, b *entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	return a.seq < b.seq
}

// yieldEvery is how many events Run executes between yields of its P.
// A run never blocks, so while runs hold every P a pending GC mark
// worker waits for the next async preemption (about 10 ms), and every
// pointer store pays the write barrier until the mark ends;
// runtime.Gosched lets the worker in at once. Run yields only while
// another goroutine exists: a lone goroutine leaves any other P idle
// for the GC's workers, and its yields would only wake an idle thread,
// which cost a single run about 4% of its CPU in futex calls.
const yieldEvery = 1024

// Engine is a deterministic discrete-event scheduler.
type Engine struct {
	now    Time
	events []entry // binary min-heap ordered by eventLess
	// fns holds each queued plain event's func at its entry's ref;
	// free lists the slots whose event has run, reused first.
	fns   []func()
	free  []int32
	lanes []*Lane // every lane, at the index its entry's ^ref names
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

// push inserts ent into the heap (sift-up). Both sifts move entries
// into a hole instead of swapping, writing each level once.
func (e *Engine) push(ent entry) {
	h := append(e.events, ent)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(&ent, &h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ent
	e.events = h
}

// pop removes the earliest entry (sift-down).
func (e *Engine) pop() {
	h := e.events
	n := len(h) - 1
	h[0] = h[n]
	e.events = h[:n]
	if n > 0 {
		e.siftDown(0)
	}
}

func (e *Engine) siftDown(i int) {
	h := e.events
	n := len(h)
	x := h[i]
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		small := l
		if r := l + 1; r < n && eventLess(&h[r], &h[l]) {
			small = r
		}
		if !eventLess(&h[small], &x) {
			break
		}
		h[i] = h[small]
		i = small
	}
	h[i] = x
}

// ScheduleAt queues fn to run at instant at with the given priority.
// It panics if at is earlier than Now: every caller computes the
// instant from the present, and one that lands in the past is a bug.
// Steady state (func table and queue capacity reached) it performs no
// allocations.
func (e *Engine) ScheduleAt(at Time, prio Priority, fn func()) {
	if at < e.now {
		panic(fmt.Sprintf("sim: event scheduled in the past: at %v, now %v", at, e.now))
	}
	var ref int32
	if n := len(e.free); n > 0 {
		ref = e.free[n-1]
		e.free = e.free[:n-1]
		e.fns[ref] = fn
	} else {
		ref = int32(len(e.fns))
		e.fns = append(e.fns, fn)
	}
	e.push(entry{at: at, seq: e.seq, prio: prio, ref: ref})
	e.seq++
	e.live++
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
		top := &e.events[0]
		at := top.at
		if e.horizon != 0 && at > e.horizon {
			// Past the horizon: stop so a later Run/RunUntil call can
			// resume from here.
			e.now = e.horizon
			break
		}
		if at < e.now {
			panic(fmt.Sprintf("sim: time went backwards: event at %v, now %v", at, e.now))
		}
		if e.budgetOn {
			if berr := e.checkBudget(at); berr != nil {
				e.budgetErr = berr
				break
			}
		}
		e.now = at
		var fn func()
		if ref := top.ref; ref < 0 {
			fn = e.lanes[^ref].advance()
		} else {
			// Free the slot before running: fn may immediately reuse
			// it for a new event.
			fn = e.fns[ref]
			e.fns[ref] = nil
			e.free = append(e.free, ref)
			e.pop()
		}
		e.live--
		e.executed++
		n++
		if e.executed%yieldEvery == 0 && runtime.NumGoroutine() > 1 {
			runtime.Gosched()
		}
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
