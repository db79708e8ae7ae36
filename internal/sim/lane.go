package sim

import (
	"fmt"
	"slices"
)

// Lane is a FIFO of events at one priority, pushed in key order: each
// item's (at, seq) key is above the last one's. However many items it
// holds, a lane takes one heap entry, keyed by its head item, and items
// run exactly where the same events scheduled one by one would have:
// each keeps the unique key it would have had, with a seq the caller
// drew from Engine.Reserve.
type Lane struct {
	eng   *Engine
	ent   event // the heap entry; keyed by items[head] while queued
	items []laneItem
	head  int
}

type laneItem struct {
	at  Time
	seq uint64
	fn  func()
}

// NewLane returns an empty lane whose items run at priority prio.
func (e *Engine) NewLane(prio Priority) *Lane {
	l := &Lane{eng: e}
	l.ent = event{prio: prio, lane: l}
	return l
}

// Push queues fn to run at instant at under sequence number seq. It
// panics if at is before Now or the key is not above the last item's.
func (l *Lane) Push(at Time, seq uint64, fn func()) {
	e, n := l.eng, len(l.items)
	if at < e.now || n > l.head && (at < l.items[n-1].at || at == l.items[n-1].at && seq <= l.items[n-1].seq) {
		panic(fmt.Sprintf("sim: lane item (%v, %d) out of order at %v", at, seq, e.now))
	}
	if l.head > 0 && n == cap(l.items) {
		// Reuse the run prefix before growing, so a lane that never
		// drains, like the slot grid, keeps a bounded backing array.
		l.items, l.head = l.items[:copy(l.items, l.items[l.head:])], 0
	}
	l.items = append(l.items, laneItem{at: at, seq: seq, fn: fn})
	e.live++
	if len(l.items)-l.head == 1 {
		l.ent.at, l.ent.seq = at, seq
		e.push(&l.ent)
	}
}

// Grow makes room for n more items without reallocating.
func (l *Lane) Grow(n int) { l.items = slices.Grow(l.items, n) }

// advance takes the head item off a lane whose entry tops the heap and
// returns its func, re-keying the entry in place to the next item, or
// dropping it when the lane drains.
func (l *Lane) advance() func() {
	fn := l.items[l.head].fn
	if l.head++; l.head < len(l.items) {
		l.ent.at, l.ent.seq = l.items[l.head].at, l.items[l.head].seq
		l.eng.siftDown(0)
	} else {
		l.items, l.head = l.items[:0], 0
		l.eng.pop()
	}
	return fn
}
