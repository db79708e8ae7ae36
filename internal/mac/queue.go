package mac

import (
	"time"

	"ewmac/internal/obs"
	"ewmac/internal/packet"
)

// Queue is the FIFO of outbound application packets. A packet stays at
// the head while its handshake is in flight and is popped only on Ack,
// so a failed round naturally retries the same packet.
//
// Overflow behaviour is pluggable (see DropPolicy): the zero value is
// the historical bounded tail-drop FIFO, DropOldest sheds from the
// front to keep the freshest traffic, and DropDeadline lazily evicts
// packets past their per-packet deadline at Peek and at Push-when-full.
// With Priority set, high-priority packets are kept in FIFO order ahead
// of every normal packet and are never shed first. None of the policies
// ever displaces the in-flight head: the MAC calls LockHead when a
// handshake for the head starts and UnlockHead when the round ends, and
// every eviction scan starts below the locked head.
type Queue struct {
	items []AppPacket
	// MaxLen bounds the queue; zero means unbounded. Overflow is
	// resolved per Policy; every packet the queue itself sheds (rejected
	// pushes and policy evictions alike) is counted in Dropped.
	MaxLen  int
	Dropped uint64
	// Policy selects the overflow behaviour (default DropTail).
	Policy DropPolicy
	// Priority enables the two-class scheme for packets with High set.
	Priority bool
	// Now supplies the current simulation instant for deadline checks;
	// nil reads as time zero, so deadlines never fire.
	Now func() time.Duration
	// OnDrop observes every packet the queue evicts on its own (expiry,
	// drop-oldest, priority displacement) with a typed reason. Rejected
	// pushes are NOT reported here — Push returns false and the caller
	// owns that drop.
	OnDrop func(p AppPacket, reason string)
	// OnEvent observes occupancy changes: pushed=true after an accepted
	// Push, pushed=false after a Pop/RemoveAt (not after
	// OnDrop evictions — those are drops, not service).
	OnEvent func(pushed bool, p AppPacket)

	headLocked bool
}

// NewQueue builds the transmit queue for cfg with the drop policy,
// bound, and observation hooks wired consistently. Any of the hooks may
// be nil.
func NewQueue(cfg Config, now func() time.Duration, onDrop func(AppPacket, string), onEvent func(bool, AppPacket)) Queue {
	return Queue{
		MaxLen:   cfg.QueueMax,
		Policy:   cfg.Overload.Policy,
		Priority: cfg.Overload.twoClass(),
		Now:      now,
		OnDrop:   onDrop,
		OnEvent:  onEvent,
	}
}

// now reads the deadline clock (zero when none is wired).
func (q *Queue) now() time.Duration {
	if q.Now == nil {
		return 0
	}
	return q.Now()
}

// expired reports whether p's deadline has passed at instant now. A
// packet is still valid AT its deadline instant; only strictly later
// does it expire.
func expired(p AppPacket, now time.Duration) bool {
	return p.Deadline > 0 && now > p.Deadline
}

// floor is the first evictable index: the locked head is out of reach
// for every shedding scan.
func (q *Queue) floor() int {
	if q.headLocked && len(q.items) > 0 {
		return 1
	}
	return 0
}

// evict removes items[i], counts it, and reports it with reason.
func (q *Queue) evict(i int, reason string) {
	p := q.items[i]
	q.items = append(q.items[:i], q.items[i+1:]...)
	q.Dropped++
	if i == 0 {
		q.headLocked = false
	}
	if q.OnDrop != nil {
		q.OnDrop(p, reason)
	}
}

// expireEvict evicts every expired packet above the floor. Returns how
// many were shed.
func (q *Queue) expireEvict(now time.Duration) int {
	n := 0
	for i := q.floor(); i < len(q.items); {
		if expired(q.items[i], now) {
			q.evict(i, obs.DropExpired)
			n++
			continue
		}
		i++
	}
	return n
}

// makeRoom tries to evict one queued packet to admit p, per policy.
func (q *Queue) makeRoom(p AppPacket) bool {
	f := q.floor()
	if f >= len(q.items) {
		// Nothing evictable (at most the locked head is queued).
		return false
	}
	switch q.Policy {
	case DropOldest:
		v := f
		if q.Priority {
			// Shed the oldest normal-priority packet first; a queued
			// high is displaced only by an incoming high with no normal
			// traffic left to shed.
			v = -1
			for i := f; i < len(q.items); i++ {
				if !q.items[i].High {
					v = i
					break
				}
			}
			if v < 0 {
				if !p.High {
					return false
				}
				v = f
			}
		}
		q.evict(v, obs.DropOldest)
		return true
	default:
		// Tail policies reject the newcomer — except that a
		// high-priority arrival may displace the newest normal packet.
		if !q.Priority || !p.High {
			return false
		}
		for i := len(q.items) - 1; i >= f; i-- {
			if !q.items[i].High {
				q.evict(i, obs.DropQueueFull)
				return true
			}
		}
		return false
	}
}

// insert places p per class: high-priority packets go ahead of every
// normal packet (FIFO within the class, never above the locked head);
// everything else is appended.
func (q *Queue) insert(p AppPacket) {
	if q.Priority && p.High {
		i := q.floor()
		for i < len(q.items) && q.items[i].High {
			i++
		}
		if i < len(q.items) {
			q.items = append(q.items, AppPacket{})
			copy(q.items[i+1:], q.items[i:])
			q.items[i] = p
			return
		}
	}
	q.items = append(q.items, p)
}

// Push admits p, returning false if the queue was full and the policy
// chose to reject the newcomer (the caller owns that drop; policy
// evictions of already-queued packets are reported through OnDrop).
func (q *Queue) Push(p AppPacket) bool {
	if q.MaxLen > 0 && len(q.items) >= q.MaxLen {
		if q.Policy == DropDeadline {
			q.expireEvict(q.now())
		}
		if len(q.items) >= q.MaxLen && !q.makeRoom(p) {
			q.Dropped++
			return false
		}
	}
	q.insert(p)
	if q.OnEvent != nil {
		q.OnEvent(true, p)
	}
	return true
}

// Peek returns the head without removing it. Under DropDeadline an
// expired, unlocked head is lazily evicted here — an in-flight head is
// left alone until its round resolves.
func (q *Queue) Peek() (AppPacket, bool) {
	if q.Policy == DropDeadline && !q.headLocked {
		now := q.now()
		for len(q.items) > 0 && expired(q.items[0], now) {
			q.evict(0, obs.DropExpired)
		}
	}
	if len(q.items) == 0 {
		return AppPacket{}, false
	}
	return q.items[0], true
}

// FirstFor returns the index of the first queued packet destined to
// dst, or -1. ROPA's appending path and CS-MAC's stealing path pull a
// packet for a specific neighbor out of FIFO order.
func (q *Queue) FirstFor(dst packet.NodeID) int {
	for i, p := range q.items {
		if p.Dst == dst {
			return i
		}
	}
	return -1
}

// Pop removes and returns the head, releasing any head lock.
func (q *Queue) Pop() (AppPacket, bool) {
	if len(q.items) == 0 {
		return AppPacket{}, false
	}
	p := q.items[0]
	q.items = q.items[1:]
	q.headLocked = false
	if q.OnEvent != nil {
		q.OnEvent(false, p)
	}
	return p, true
}

// RemoveAt removes and returns the packet at index i. Removing index 0
// releases any head lock.
func (q *Queue) RemoveAt(i int) (AppPacket, bool) {
	if i < 0 || i >= len(q.items) {
		return AppPacket{}, false
	}
	p := q.items[i]
	q.items = append(q.items[:i], q.items[i+1:]...)
	if i == 0 {
		q.headLocked = false
	}
	if q.OnEvent != nil {
		q.OnEvent(false, p)
	}
	return p, true
}

// LockHead pins the current head against every shedding scan while its
// handshake is in flight. Pop and RemoveAt(0) release the lock.
func (q *Queue) LockHead() {
	if len(q.items) > 0 {
		q.headLocked = true
	}
}

// UnlockHead releases the in-flight pin (failed round, restart).
func (q *Queue) UnlockHead() { q.headLocked = false }

// Len reports queued packets.
func (q *Queue) Len() int { return len(q.items) }

// Items exposes the backing slice for read-only scans (do not mutate).
func (q *Queue) Items() []AppPacket { return q.items }
