package mac

import (
	"testing"
	"time"

	"ewmac/internal/obs"
)

func TestParseDropPolicy(t *testing.T) {
	cases := []struct {
		in   string
		want DropPolicy
		ok   bool
	}{
		{"", DropTail, true},
		{"tail", DropTail, true},
		{"oldest", DropOldest, true},
		{"drop-oldest", DropOldest, true},
		{"deadline", DropDeadline, true},
		{"TTL", DropDeadline, true},
		{" Deadline ", DropDeadline, true},
		{"random", DropTail, false},
	}
	for _, c := range cases {
		got, err := ParseDropPolicy(c.in)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("ParseDropPolicy(%q) = %v, %v", c.in, got, err)
		}
	}
	for _, p := range []DropPolicy{DropTail, DropOldest, DropDeadline} {
		rt, err := ParseDropPolicy(p.String())
		if err != nil || rt != p {
			t.Errorf("round trip %v = %v, %v", p, rt, err)
		}
	}
}

func TestOverloadConfigValidate(t *testing.T) {
	good := []OverloadConfig{
		{},
		{Policy: DropOldest},
		{Policy: DropDeadline, PacketTTL: time.Second},
		{HighWater: 0.9},
		{RetryBudget: RetryBudgetConfig{Burst: 4, RatePerSec: 1}},
	}
	for i, o := range good {
		if err := o.Validate(128); err != nil {
			t.Errorf("good[%d]: %v", i, err)
		}
	}
	bad := []OverloadConfig{
		{Policy: DropPolicy(9)},
		{PacketTTL: -time.Second},
		{Policy: DropDeadline}, // deadline policy without TTL
		{HighWater: 1.5},
		{HighWater: -0.1},
		{RetryBudget: RetryBudgetConfig{Burst: -1}},
		{RetryBudget: RetryBudgetConfig{Burst: 1, RatePerSec: -1}},
	}
	for i, o := range bad {
		if err := o.Validate(128); err == nil {
			t.Errorf("bad[%d] %+v passed", i, o)
		}
	}
	// The admission gate needs a bounded queue to take fractions of.
	if err := (OverloadConfig{HighWater: 0.9}).Validate(0); err == nil {
		t.Error("high water with unbounded queue passed")
	}
}

func TestOverloadConfigArmedAndDefaults(t *testing.T) {
	if (OverloadConfig{}).Armed() {
		t.Error("zero config armed")
	}
	armed := []OverloadConfig{
		{Policy: DropOldest},
		{PacketTTL: time.Second},
		{PriorityEvery: 4},
		{HighWater: 0.9},
		{RetryBudget: RetryBudgetConfig{Burst: 1}},
	}
	for i, o := range armed {
		if !o.Armed() {
			t.Errorf("armed[%d] not armed", i)
		}
	}
	d := OverloadConfig{RetryBudget: RetryBudgetConfig{Burst: 4}}
	d.applyDefaults()
	if d.RetryBudget.RatePerSec != 0.5 {
		t.Errorf("default retry rate = %v", d.RetryBudget.RatePerSec)
	}
}

func TestAdmissionGateHysteresis(t *testing.T) {
	g := NewAdmissionGate(Config{
		QueueMax: 10,
		Overload: OverloadConfig{HighWater: 0.8},
	})
	if !g.Enabled() {
		t.Fatal("gate not enabled")
	}
	if closed, changed := g.Update(7); closed || changed {
		t.Fatal("closed below high water")
	}
	closed, changed := g.Update(8)
	if !closed || !changed {
		t.Fatal("did not close at high water")
	}
	// Between the marks the gate holds its state in both directions.
	if closed, changed = g.Update(5); !closed || changed {
		t.Fatal("reopened above low water")
	}
	if closed, changed = g.Update(4); closed || !changed {
		t.Fatal("did not reopen at low water")
	}
	if closed, changed = g.Update(7); closed || changed {
		t.Fatal("re-closed below high water after reopening")
	}

	var off AdmissionGate
	if off.Enabled() {
		t.Error("zero gate enabled")
	}
	if closed, _ := off.Update(1 << 20); closed {
		t.Error("zero gate closed")
	}
}

func TestRetryBucketLazyRefill(t *testing.T) {
	cfg := Config{
		Slots: SlotConfig{Omega: 500 * time.Millisecond, TauMax: 500 * time.Millisecond},
		Overload: OverloadConfig{
			RetryBudget: RetryBudgetConfig{Burst: 2, RatePerSec: 1},
		},
	}
	b := NewRetryBucket(cfg) // 1 s slots, 1 token/s, burst 2
	if !b.enabled {
		t.Fatal("bucket not enabled")
	}
	if !b.Allow(0) || !b.Allow(0) {
		t.Fatal("initial burst not granted")
	}
	if b.Allow(0) {
		t.Fatal("empty bucket granted at same slot")
	}
	if !b.Allow(1) {
		t.Fatal("one elapsed slot did not refill one token")
	}
	if b.Allow(1) {
		t.Fatal("granted beyond refill")
	}
	// A long idle gap refills to burst, not beyond.
	if !b.Allow(100) || !b.Allow(100) {
		t.Fatal("long gap did not refill to burst")
	}
	if b.Allow(100) {
		t.Fatal("refilled beyond burst")
	}

	var off RetryBucket
	if off.enabled {
		t.Error("zero bucket enabled")
	}
	for i := 0; i < 10; i++ {
		if !off.Allow(0) {
			t.Fatal("disabled bucket denied")
		}
	}
}

// --- Queue edge tests (drop policies, head lock, deadlines) ---

// clock is a settable Now source for deadline tests.
type clock struct{ at time.Duration }

func (c *clock) now() time.Duration { return c.at }

func TestQueueDropOldest(t *testing.T) {
	var drops []uint32
	q := Queue{MaxLen: 2, Policy: DropOldest,
		OnDrop: func(p AppPacket, reason string) {
			if reason != obs.DropOldest {
				t.Errorf("reason = %q", reason)
			}
			drops = append(drops, p.Seq)
		}}
	q.Push(AppPacket{Seq: 1})
	q.Push(AppPacket{Seq: 2})
	if !q.Push(AppPacket{Seq: 3}) {
		t.Fatal("drop-oldest push rejected")
	}
	if len(drops) != 1 || drops[0] != 1 {
		t.Fatalf("drops = %v", drops)
	}
	if q.Dropped != 1 {
		t.Errorf("Dropped = %d", q.Dropped)
	}
	if p, _ := q.Peek(); p.Seq != 2 {
		t.Errorf("head = %d", p.Seq)
	}
}

func TestQueueDropOldestSparesLockedHead(t *testing.T) {
	q := Queue{MaxLen: 2, Policy: DropOldest}
	q.Push(AppPacket{Seq: 1})
	q.Push(AppPacket{Seq: 2})
	q.LockHead()
	if !q.Push(AppPacket{Seq: 3}) {
		t.Fatal("push rejected")
	}
	if p, _ := q.Peek(); p.Seq != 1 {
		t.Errorf("locked head evicted; head = %d", p.Seq)
	}
	// With only the locked head queued, nothing is evictable.
	q2 := Queue{MaxLen: 1, Policy: DropOldest}
	q2.Push(AppPacket{Seq: 1})
	q2.LockHead()
	if q2.Push(AppPacket{Seq: 2}) {
		t.Fatal("push displaced the only (locked) packet")
	}
	if q2.Dropped != 1 {
		t.Errorf("Dropped = %d", q2.Dropped)
	}
}

func TestQueueDeadlineExpiryBoundary(t *testing.T) {
	c := &clock{}
	q := Queue{MaxLen: 8, Policy: DropDeadline, Now: c.now}
	q.Push(AppPacket{Seq: 1, Deadline: 10 * time.Second})
	q.Push(AppPacket{Seq: 2}) // no deadline: never expires

	// A packet is valid AT its deadline instant.
	c.at = 10 * time.Second
	if p, ok := q.Peek(); !ok || p.Seq != 1 {
		t.Fatalf("Peek at exact deadline = %+v, %v", p, ok)
	}
	// Strictly past it, the head is lazily evicted.
	c.at = 10*time.Second + time.Nanosecond
	if p, ok := q.Peek(); !ok || p.Seq != 2 {
		t.Fatalf("Peek past deadline = %+v, %v", p, ok)
	}
	if q.Dropped != 1 || q.Len() != 1 {
		t.Errorf("Dropped=%d Len=%d", q.Dropped, q.Len())
	}
}

func TestQueueDeadlineExpiryMakesRoom(t *testing.T) {
	c := &clock{}
	var reasons []string
	q := Queue{MaxLen: 2, Policy: DropDeadline, Now: c.now,
		OnDrop: func(_ AppPacket, r string) { reasons = append(reasons, r) }}
	q.Push(AppPacket{Seq: 1, Deadline: time.Second})
	q.Push(AppPacket{Seq: 2, Deadline: time.Hour})
	c.at = 2 * time.Second
	if !q.Push(AppPacket{Seq: 3, Deadline: time.Hour}) {
		t.Fatal("push-when-full did not expire stale traffic")
	}
	if len(reasons) != 1 || reasons[0] != obs.DropExpired {
		t.Fatalf("reasons = %v", reasons)
	}
	// Nothing expired and nothing evictable: the newcomer is rejected.
	if q.Push(AppPacket{Seq: 4, Deadline: time.Hour}) {
		t.Fatal("push succeeded with no room")
	}
	if q.Dropped != 2 {
		t.Errorf("Dropped = %d", q.Dropped)
	}
}

func TestQueueDeadlineLockedHeadNotExpired(t *testing.T) {
	c := &clock{}
	q := Queue{MaxLen: 4, Policy: DropDeadline, Now: c.now}
	q.Push(AppPacket{Seq: 1, Deadline: time.Second})
	q.LockHead()
	c.at = time.Minute
	if p, ok := q.Peek(); !ok || p.Seq != 1 {
		t.Fatalf("in-flight head evicted: %+v, %v", p, ok)
	}
	q.UnlockHead()
	if _, ok := q.Peek(); ok {
		t.Fatal("expired head survived unlock")
	}
}

func TestQueuePriorityOrdering(t *testing.T) {
	q := Queue{MaxLen: 8, Priority: true}
	q.Push(AppPacket{Seq: 1})
	q.Push(AppPacket{Seq: 2, High: true})
	q.Push(AppPacket{Seq: 3})
	q.Push(AppPacket{Seq: 4, High: true})
	var got []uint32
	for {
		p, ok := q.Pop()
		if !ok {
			break
		}
		got = append(got, p.Seq)
	}
	want := []uint32{2, 4, 1, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestQueuePriorityNeverAboveLockedHead(t *testing.T) {
	q := Queue{MaxLen: 8, Priority: true}
	q.Push(AppPacket{Seq: 1})
	q.LockHead()
	q.Push(AppPacket{Seq: 2, High: true})
	if p, _ := q.Peek(); p.Seq != 1 {
		t.Fatalf("high insert displaced in-flight head; head = %d", p.Seq)
	}
	if q.Items()[1].Seq != 2 {
		t.Fatalf("high packet not right below the head: %+v", q.Items())
	}
}

func TestQueuePriorityDisplacement(t *testing.T) {
	var drops []uint32
	q := Queue{MaxLen: 2, Priority: true,
		OnDrop: func(p AppPacket, r string) {
			if r != obs.DropQueueFull {
				t.Errorf("reason = %q", r)
			}
			drops = append(drops, p.Seq)
		}}
	q.Push(AppPacket{Seq: 1})
	q.Push(AppPacket{Seq: 2})
	// A normal arrival is tail-dropped; a high arrival displaces the
	// newest normal packet.
	if q.Push(AppPacket{Seq: 3}) {
		t.Fatal("normal push above bound succeeded")
	}
	if !q.Push(AppPacket{Seq: 4, High: true}) {
		t.Fatal("high push rejected")
	}
	if len(drops) != 1 || drops[0] != 2 {
		t.Fatalf("drops = %v", drops)
	}
	// An all-high queue rejects further high arrivals under tail policy.
	q2 := Queue{MaxLen: 1, Priority: true}
	q2.Push(AppPacket{Seq: 1, High: true})
	if q2.Push(AppPacket{Seq: 2, High: true}) {
		t.Fatal("high displaced high under tail policy")
	}
}

func TestQueueDropOldestPrioritySheddingOrder(t *testing.T) {
	var drops []uint32
	q := Queue{MaxLen: 3, Policy: DropOldest, Priority: true,
		OnDrop: func(p AppPacket, _ string) { drops = append(drops, p.Seq) }}
	q.Push(AppPacket{Seq: 1, High: true})
	q.Push(AppPacket{Seq: 2})
	q.Push(AppPacket{Seq: 3})
	// Oldest NORMAL packet goes first, not the older high packet.
	q.Push(AppPacket{Seq: 4})
	if len(drops) != 1 || drops[0] != 2 {
		t.Fatalf("drops = %v", drops)
	}
	// With only high packets queued, a normal arrival is rejected…
	q2 := Queue{MaxLen: 1, Policy: DropOldest, Priority: true}
	q2.Push(AppPacket{Seq: 1, High: true})
	if q2.Push(AppPacket{Seq: 2}) {
		t.Fatal("normal arrival displaced a high packet")
	}
	// …but an incoming high may displace a queued high.
	if !q2.Push(AppPacket{Seq: 3, High: true}) {
		t.Fatal("high arrival could not displace the oldest high")
	}
}

func TestQueueRemoveAtInterleavings(t *testing.T) {
	q := Queue{MaxLen: 8}
	for i := uint32(1); i <= 4; i++ {
		q.Push(AppPacket{Seq: i})
	}
	q.LockHead()
	if _, ok := q.RemoveAt(2); !ok { // mid-queue removal keeps the lock
		t.Fatal("RemoveAt(2) failed")
	}
	if !q.headLocked {
		t.Fatal("mid-queue removal released the head lock")
	}
	if _, ok := q.RemoveAt(0); !ok { // head removal releases it
		t.Fatal("RemoveAt(0) failed")
	}
	if q.headLocked {
		t.Fatal("head removal kept the lock")
	}
	var got []uint32
	for _, p := range q.Items() {
		got = append(got, p.Seq)
	}
	if len(got) != 2 || got[0] != 2 || got[1] != 4 {
		t.Fatalf("surviving order = %v", got)
	}
	// Pop also releases a fresh lock.
	q.LockHead()
	q.Pop()
	if q.headLocked {
		t.Fatal("Pop kept the lock")
	}
	// LockHead on an empty queue is a no-op.
	q.Pop()
	q.LockHead()
	if q.headLocked {
		t.Fatal("empty queue locked")
	}
}

func TestQueueDroppedAccountingAcrossPolicies(t *testing.T) {
	c := &clock{}
	cases := []struct {
		name string
		q    Queue
		want uint64
	}{
		{"tail", Queue{MaxLen: 1}, 2},
		{"oldest", Queue{MaxLen: 1, Policy: DropOldest}, 2},
		{"deadline", Queue{MaxLen: 1, Policy: DropDeadline, Now: c.now}, 2},
	}
	for _, tc := range cases {
		tc.q.Push(AppPacket{Seq: 1, Deadline: time.Hour})
		tc.q.Push(AppPacket{Seq: 2, Deadline: time.Hour})
		tc.q.Push(AppPacket{Seq: 3, Deadline: time.Hour})
		if tc.q.Dropped != tc.want {
			t.Errorf("%s: Dropped = %d, want %d", tc.name, tc.q.Dropped, tc.want)
		}
		if tc.q.Len() != 1 {
			t.Errorf("%s: Len = %d", tc.name, tc.q.Len())
		}
	}
}

func TestQueueEventHooks(t *testing.T) {
	var pushes, pops int
	q := Queue{MaxLen: 2,
		OnEvent: func(pushed bool, _ AppPacket) {
			if pushed {
				pushes++
			} else {
				pops++
			}
		}}
	q.Push(AppPacket{Seq: 1})
	q.Push(AppPacket{Seq: 0})
	q.Push(AppPacket{Seq: 2}) // rejected: no event
	q.Pop()
	q.RemoveAt(0)
	if pushes != 2 || pops != 2 {
		t.Errorf("pushes=%d pops=%d", pushes, pops)
	}
}

func TestCountersCountDrop(t *testing.T) {
	var c Counters
	for _, r := range []string{
		obs.DropRetryExhausted, obs.DropDeadPeer, obs.DropQueueFull,
		obs.DropOldest, obs.DropExpired, obs.DropShed, "unknown",
	} {
		c.CountDrop(r)
	}
	if c.Dropped != 7 {
		t.Errorf("Dropped = %d", c.Dropped)
	}
	for name, got := range map[string]uint64{
		"retry": c.DroppedRetry, "dead-peer": c.DroppedDeadPeer,
		"queue-full": c.DroppedQueueFull, "oldest": c.DroppedOldest,
		"expired": c.DroppedExpired, "shed": c.DroppedShed,
	} {
		if got != 1 {
			t.Errorf("%s = %d", name, got)
		}
	}
}
