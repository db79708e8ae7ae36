package mac

import (
	"fmt"
	"strings"
	"time"
)

// This file is the MAC overload-protection layer: the queue drop
// policies, the high-water/low-water admission gate that sheds offered
// load before the queue saturates, and the per-node token-bucket retry
// budget that keeps a backlogged fleet from synchronizing into a retry
// storm. Everything here is inert by default — the zero OverloadConfig
// reproduces the pre-overload tail-drop behaviour bit-identically —
// and Node wires it once for every MAC.

// DropPolicy selects what a bounded queue sheds when it is full.
type DropPolicy uint8

// Queue drop policies.
const (
	// DropTail rejects the newest packet on overflow (the historical
	// default).
	DropTail DropPolicy = iota
	// DropOldest evicts the oldest queued packet to admit the newest,
	// keeping the freshest traffic — never the in-flight head.
	DropOldest
	// DropDeadline tail-drops on overflow like DropTail, but every
	// packet carries a deadline (Enqueue stamps generation + PacketTTL)
	// and expired packets are lazily evicted at Peek and at Push-when-
	// full, so a saturated queue spends the channel only on traffic
	// that can still arrive in time.
	DropDeadline
)

// String implements fmt.Stringer with the names ParseDropPolicy reads.
func (p DropPolicy) String() string {
	switch p {
	case DropTail:
		return "tail"
	case DropOldest:
		return "oldest"
	case DropDeadline:
		return "deadline"
	default:
		return fmt.Sprintf("DropPolicy(%d)", uint8(p))
	}
}

// ParseDropPolicy reads a policy name ("tail", "oldest", "deadline").
func ParseDropPolicy(s string) (DropPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "tail":
		return DropTail, nil
	case "oldest", "drop-oldest":
		return DropOldest, nil
	case "deadline", "ttl":
		return DropDeadline, nil
	default:
		return DropTail, fmt.Errorf("mac: unknown drop policy %q (want tail, oldest, or deadline)", s)
	}
}

// RetryBudgetConfig bounds handshake retries with a per-node token
// bucket (à la SRE retry budgets), layered on the existing
// binary-exponential backoff: first attempts are always free, every
// retry spends one token, and an empty bucket defers the retry to a
// later slot instead of dropping the packet.
type RetryBudgetConfig struct {
	// Burst is the bucket capacity in retries; zero disables the
	// budget entirely.
	Burst int
	// RatePerSec refills the bucket in retries per second (default 0.5
	// when Burst is set). The refill is computed lazily from elapsed
	// slots, so it draws no randomness and costs nothing when idle.
	RatePerSec float64
}

// Enabled reports whether the retry budget is armed.
func (r RetryBudgetConfig) Enabled() bool { return r.Burst > 0 }

// OverloadConfig configures the overload-protection layer of one MAC.
// The zero value disables every mechanism and is bit-identical to the
// pre-overload behaviour.
type OverloadConfig struct {
	// Policy selects the queue's overflow behaviour.
	Policy DropPolicy
	// PacketTTL stamps each enqueued packet with a delivery deadline of
	// generation + TTL (packets arriving with an explicit Deadline keep
	// it). Required when Policy is DropDeadline; with other policies the
	// stamp is carried but never enforced.
	PacketTTL time.Duration
	// PriorityEvery marks every Nth generated packet high-priority and
	// enables the two-class scheme; zero leaves it off.
	// High packets are queued ahead of every normal packet (FIFO within
	// the class), bypass admission shedding, and are never shed first on
	// overflow. A high-priority insert never displaces the in-flight
	// head.
	PriorityEvery int
	// HighWater arms the admission gate: when queue occupancy reaches
	// HighWater × QueueMax, Enqueue sheds normal-priority packets with
	// the typed "load-shed" reason until occupancy falls back to
	// HighWater/2 × QueueMax; the hysteresis keeps the gate from
	// flapping at the boundary. A fraction of a bounded queue; zero
	// disables.
	HighWater float64
	// RetryBudget bounds handshake retries per node.
	RetryBudget RetryBudgetConfig
}

// Armed reports whether any overload mechanism is enabled.
func (o OverloadConfig) Armed() bool {
	return o.Policy != DropTail || o.PacketTTL > 0 || o.twoClass() ||
		o.HighWater > 0 || o.RetryBudget.Enabled()
}

// twoClass reports whether the two-class priority scheme is on.
func (o OverloadConfig) twoClass() bool { return o.PriorityEvery > 0 }

func (o *OverloadConfig) applyDefaults() {
	if o.RetryBudget.Burst > 0 && o.RetryBudget.RatePerSec <= 0 {
		o.RetryBudget.RatePerSec = 0.5
	}
}

// Validate reports the first invalid field. queueMax is the queue
// bound the gate thresholds are fractions of.
func (o OverloadConfig) Validate(queueMax int) error {
	switch o.Policy {
	case DropTail, DropOldest, DropDeadline:
	default:
		return fmt.Errorf("mac: unknown drop policy %v", o.Policy)
	}
	if o.PacketTTL < 0 {
		return fmt.Errorf("mac: negative packet TTL %v", o.PacketTTL)
	}
	if o.Policy == DropDeadline && o.PacketTTL <= 0 {
		return fmt.Errorf("mac: deadline drop policy needs a positive PacketTTL")
	}
	if o.HighWater < 0 || o.HighWater > 1 {
		return fmt.Errorf("mac: high water %v outside (0, 1]", o.HighWater)
	}
	if o.HighWater > 0 && queueMax <= 0 {
		return fmt.Errorf("mac: admission gate needs a bounded queue (QueueMax > 0)")
	}
	if o.RetryBudget.Burst < 0 {
		return fmt.Errorf("mac: negative retry budget burst %d", o.RetryBudget.Burst)
	}
	if o.RetryBudget.RatePerSec < 0 {
		return fmt.Errorf("mac: negative retry budget rate %v", o.RetryBudget.RatePerSec)
	}
	return nil
}

// AdmissionGate is the hysteresis load-shedding gate: it closes when
// queue occupancy reaches the high-water mark and reopens only once
// occupancy drains to the low-water mark, half the high one. The zero
// value is disabled.
type AdmissionGate struct {
	high, low int
	closed    bool
}

// NewAdmissionGate derives the occupancy thresholds from cfg. The
// returned gate is disabled when the config leaves HighWater unset.
func NewAdmissionGate(cfg Config) AdmissionGate {
	o := cfg.Overload
	if o.HighWater <= 0 || cfg.QueueMax <= 0 {
		return AdmissionGate{}
	}
	high := int(o.HighWater*float64(cfg.QueueMax) + 0.5)
	if high < 1 {
		high = 1
	}
	low := int(o.HighWater / 2 * float64(cfg.QueueMax))
	if low >= high {
		low = high - 1
	}
	if low < 0 {
		low = 0
	}
	return AdmissionGate{high: high, low: low}
}

// Enabled reports whether the gate is armed.
func (g *AdmissionGate) Enabled() bool { return g.high > 0 }

// Update re-evaluates the gate against the current occupancy,
// returning the (possibly new) closed state and whether it just
// transitioned — the signal for overload begin/end events.
func (g *AdmissionGate) Update(occupancy int) (closed, changed bool) {
	if g.high <= 0 {
		return false, false
	}
	was := g.closed
	if g.closed {
		if occupancy <= g.low {
			g.closed = false
		}
	} else if occupancy >= g.high {
		g.closed = true
	}
	return g.closed, g.closed != was
}

// RetryBucket is the runtime state of a RetryBudgetConfig: a token
// bucket refilled lazily from elapsed slots, so consulting it is
// deterministic, allocation-free, and RNG-free. The zero value is
// disabled and always allows.
type RetryBucket struct {
	tokens   float64
	burst    float64
	perSlot  float64
	lastSlot int64
	enabled  bool
}

// NewRetryBucket builds the bucket for cfg (full at start). Disabled
// when the config leaves Burst unset.
func NewRetryBucket(cfg Config) RetryBucket {
	rb := cfg.Overload.RetryBudget
	if !rb.Enabled() {
		return RetryBucket{}
	}
	rate := rb.RatePerSec
	if rate <= 0 {
		rate = 0.5
	}
	return RetryBucket{
		tokens:  float64(rb.Burst),
		burst:   float64(rb.Burst),
		perSlot: rate * cfg.Slots.Len().Seconds(),
		enabled: true,
	}
}

// Allow spends one retry token at slot s, refilling for the slots
// elapsed since the last call. A false return means the retry must be
// deferred — the caller waits a slot rather than dropping the packet.
func (b *RetryBucket) Allow(s int64) bool {
	if !b.enabled {
		return true
	}
	if s > b.lastSlot {
		b.tokens += float64(s-b.lastSlot) * b.perSlot
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
		b.lastSlot = s
	}
	if b.tokens >= 1 {
		b.tokens--
		return true
	}
	return false
}
