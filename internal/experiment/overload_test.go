package experiment

// The overload soak harness: a saturation sweep from well below to 4×
// the network's capacity, comparing a managed configuration (deadline
// drops + admission control + retry budget) against the unmanaged
// historical baseline (unbounded tail-drop queue). The managed runs
// must keep queue memory bounded and hold their FRESH goodput —
// deliveries younger than the TTL — near the peak across loads, while
// the unmanaged baseline visibly collapses: its queues grow without
// bound and most of what it delivers under saturation is stale.
//
// Every test here matches -run TestOverload (the CI overload-soak job
// filter). The runs are short (2 min simulated, tens of ms wall) so
// the sweep stays cheap under -race.

import (
	"strings"
	"testing"
	"time"

	"ewmac/internal/mac"
	"ewmac/internal/obs"
	"ewmac/internal/sim"
)

// soakTTL is the freshness bound: a delivery older than this is stale
// and does not count toward goodput, and the managed configuration
// sheds queued packets once they cross it.
const soakTTL = 30 * time.Second

// soakLoads sweeps 0.5×–4× of the ~0.5 kbps saturation knee of the
// 12-node/2-sink topology below.
var soakLoads = []float64{0.25, 0.5, 1.0, 2.0}

// freshCounter is an obs.Recorder that splits deliveries into fresh
// (latency ≤ TTL) and stale.
type freshCounter struct {
	ttl          time.Duration
	fresh, stale uint64
	freshBits    uint64
}

func (f *freshCounter) Record(_ sim.Time, e obs.Event) {
	d, ok := e.(*obs.Delivery)
	if !ok {
		return
	}
	if d.Latency <= f.ttl {
		f.fresh++
		f.freshBits += uint64(d.Bits)
	} else {
		f.stale++
	}
}

// soakPoint is one (load, config) measurement.
type soakPoint struct {
	load          float64
	freshKbps     float64
	fresh, stale  uint64
	queuePeak     int
	dropped       uint64
	droppedExpire uint64
}

// runSoak executes one soak run and reduces it to a soakPoint. Managed
// runs get the full overload layer; unmanaged runs get the historical
// unbounded tail-drop queue.
func runSoak(t *testing.T, p Protocol, load float64, managed bool) soakPoint {
	t.Helper()
	cfg := Default(p)
	cfg.Nodes = 12
	cfg.Sinks = 2
	cfg.OfferedLoadKbps = load
	cfg.SimTime = 120 * time.Second
	// A frozen or runaway run must fail the test, not hang it: every
	// soak run executes under an event budget and livelock watchdog.
	cfg.Budget = sim.Budget{MaxEvents: 20_000_000}
	if managed {
		cfg.Overload = mac.OverloadConfig{
			Policy:      mac.DropDeadline,
			PacketTTL:   soakTTL,
			HighWater:   0.9,
			RetryBudget: mac.RetryBudgetConfig{Burst: 8, RatePerSec: 1},
		}
	} else {
		cfg.QueueMax = 0 // unbounded tail-drop: the historical worst case
	}
	fc := &freshCounter{ttl: soakTTL}
	cfg.Observe = &Observe{Report: true, Recorder: fc}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("%s load %g managed=%v: %v", p, load, managed, err)
	}
	if res.Report == nil {
		t.Fatalf("%s load %g: no run report", p, load)
	}
	window := (cfg.SimTime - cfg.Warmup).Seconds()
	return soakPoint{
		load:          load,
		freshKbps:     float64(fc.freshBits) / 1000 / window,
		fresh:         fc.fresh,
		stale:         fc.stale,
		queuePeak:     res.Report.QueuePeakDepth,
		dropped:       res.Summary.MAC.Dropped,
		droppedExpire: res.Summary.MAC.DroppedExpired,
	}
}

// peak returns the maximum fresh goodput across the sweep.
func peak(points []soakPoint) float64 {
	var m float64
	for _, pt := range points {
		if pt.freshKbps > m {
			m = pt.freshKbps
		}
	}
	return m
}

// TestOverloadSoakEWMAC is the PR's acceptance check: under a 0.5×–4×
// saturation sweep, managed EW-MAC holds its fresh goodput at 4× within
// 15% of its peak across loads with bounded queues, while the unmanaged
// baseline collapses — unbounded queue growth and a saturated goodput
// measurably below its own peak.
func TestOverloadSoakEWMAC(t *testing.T) {
	var managed, unmanaged []soakPoint
	for _, load := range soakLoads {
		m := runSoak(t, ProtocolEWMAC, load, true)
		u := runSoak(t, ProtocolEWMAC, load, false)
		managed = append(managed, m)
		unmanaged = append(unmanaged, u)
		t.Logf("load %.2f: managed fresh=%.4f kbps (stale=%d peak=%d expired=%d)  unmanaged fresh=%.4f kbps (stale=%d peak=%d)",
			load, m.freshKbps, m.stale, m.queuePeak, m.droppedExpire,
			u.freshKbps, u.stale, u.queuePeak)
	}

	mSat := managed[len(managed)-1]
	uSat := unmanaged[len(unmanaged)-1]

	// Managed: saturated fresh goodput within 15% of the sweep peak.
	if mp := peak(managed); mSat.freshKbps < 0.85*mp {
		t.Errorf("managed fresh goodput collapsed at saturation: %.4f kbps < 85%% of peak %.4f",
			mSat.freshKbps, mp)
	}
	// Managed: queue memory bounded by the configured cap at every load.
	for _, pt := range managed {
		if pt.queuePeak > 128 {
			t.Errorf("managed queue peak %d exceeds QueueMax at load %g", pt.queuePeak, pt.load)
		}
	}
	// The deadline policy must actually be doing the shedding work under
	// saturation — otherwise the goodput number is not its doing.
	if mSat.droppedExpire == 0 {
		t.Error("managed saturated run expired nothing: deadline policy inert")
	}

	// Unmanaged: the backlog grows far beyond anything the managed
	// configuration retains, and what it delivers under saturation is
	// mostly stale — its fresh goodput visibly collapses relative to the
	// managed run at the same load.
	if uSat.queuePeak <= mSat.queuePeak {
		t.Errorf("unmanaged queue peak %d not above managed %d: saturation never backlogged",
			uSat.queuePeak, mSat.queuePeak)
	}
	if uSat.stale == 0 {
		t.Error("unmanaged saturated run delivered nothing stale")
	}
	if uSat.freshKbps >= 0.85*mSat.freshKbps {
		t.Errorf("unmanaged fresh goodput %.4f kbps not visibly below managed %.4f at saturation",
			uSat.freshKbps, mSat.freshKbps)
	}
}

// TestOverloadSoakAllProtocols drives every protocol at 4× capacity
// with the managed configuration: each run must complete inside its
// event budget (no livelock), keep its queues inside the cap, and
// account every drop under a typed reason.
func TestOverloadSoakAllProtocols(t *testing.T) {
	for _, p := range allProtocols {
		p := p
		t.Run(string(p), func(t *testing.T) {
			pt := runSoak(t, p, soakLoads[len(soakLoads)-1], true)
			if pt.queuePeak > 128 {
				t.Errorf("queue peak %d exceeds QueueMax", pt.queuePeak)
			}
			if pt.fresh == 0 {
				t.Error("saturated run delivered nothing fresh")
			}
			t.Logf("fresh=%.4f kbps stale=%d peak=%d dropped=%d (expired=%d)",
				pt.freshKbps, pt.stale, pt.queuePeak, pt.dropped, pt.droppedExpire)
		})
	}
}

// TestOverloadTypedDropAccounting: on a managed saturated run the
// aggregate drop counter equals the sum of its typed breakdowns — no
// drop path escapes classification.
func TestOverloadTypedDropAccounting(t *testing.T) {
	cfg := Default(ProtocolEWMAC)
	cfg.Nodes = 12
	cfg.Sinks = 2
	cfg.OfferedLoadKbps = 2
	cfg.SimTime = 120 * time.Second
	cfg.QueueMax = 4 // tiny queue so overflow and shedding both fire
	cfg.Overload = mac.OverloadConfig{
		Policy:    mac.DropDeadline,
		PacketTTL: soakTTL,
		HighWater: 0.75,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := res.Summary.MAC
	typed := c.DroppedRetry + c.DroppedDeadPeer + c.DroppedQueueFull +
		c.DroppedOldest + c.DroppedExpired + c.DroppedShed
	if c.Dropped != typed {
		t.Errorf("Dropped=%d but typed sum=%d (retry=%d dead=%d full=%d oldest=%d expired=%d shed=%d)",
			c.Dropped, typed, c.DroppedRetry, c.DroppedDeadPeer, c.DroppedQueueFull,
			c.DroppedOldest, c.DroppedExpired, c.DroppedShed)
	}
	if c.Dropped == 0 {
		t.Error("saturated run with a 4-slot queue dropped nothing")
	}
}

// TestOverloadClosedLoop: with the generators closed-loop, arrivals are
// withheld at the source instead of shed at the queue, and the overload
// episodes appear in the resilience summary.
func TestOverloadClosedLoop(t *testing.T) {
	cfg := Default(ProtocolEWMAC)
	cfg.Nodes = 12
	cfg.Sinks = 2
	cfg.OfferedLoadKbps = 2
	cfg.SimTime = 120 * time.Second
	cfg.QueueMax = 4
	cfg.ClosedLoop = true
	cfg.Overload = mac.OverloadConfig{HighWater: 0.75}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resilience == nil {
		t.Fatal("overload-managed run has no resilience stats")
	}
	r := res.Resilience
	if r.OverloadEpisodes == 0 {
		t.Error("saturated 4-slot queues never closed the admission gate")
	}
	if r.OverloadEpisodes > 0 && r.OverloadS <= 0 {
		t.Errorf("%d overload episodes but zero overload time", r.OverloadEpisodes)
	}
	// Closed-loop: the source withholds, so queue-level sheds are rare
	// compared to the open-loop run below.
	open := cfg
	open.ClosedLoop = false
	openRes, err := Run(open)
	if err != nil {
		t.Fatal(err)
	}
	if openRes.Resilience == nil {
		t.Fatal("open-loop managed run has no resilience stats")
	}
	if openRes.Resilience.ShedPackets == 0 {
		t.Error("open-loop saturated run shed nothing at the gate")
	}
	if res.Summary.MAC.DroppedShed >= openRes.Summary.MAC.DroppedShed {
		t.Errorf("closed loop shed %d at the queue, open loop %d: backpressure not reducing queue-level sheds",
			res.Summary.MAC.DroppedShed, openRes.Summary.MAC.DroppedShed)
	}
	t.Logf("closed: episodes=%d overload=%.1fs shed=%d  open: shed=%d",
		r.OverloadEpisodes, r.OverloadS, r.ShedPackets, openRes.Resilience.ShedPackets)
}

// TestOverloadRetryBudgetDefers: an exhausted retry budget defers
// retries (counted, never dropped for that reason) and the deferrals
// surface in both the counters and the resilience summary.
func TestOverloadRetryBudgetDefers(t *testing.T) {
	cfg := Default(ProtocolEWMAC)
	cfg.Nodes = 12
	cfg.Sinks = 2
	cfg.OfferedLoadKbps = 2
	cfg.SimTime = 120 * time.Second
	cfg.Overload = mac.OverloadConfig{
		RetryBudget: mac.RetryBudgetConfig{Burst: 1, RatePerSec: 0.02},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := res.Summary.MAC
	if c.RetryDeferrals == 0 {
		t.Error("a starved retry budget under saturation deferred nothing")
	}
	if res.Resilience == nil || res.Resilience.RetryDeferrals != c.RetryDeferrals {
		t.Errorf("resilience deferrals diverge from counters: %+v vs %d",
			res.Resilience, c.RetryDeferrals)
	}
	// Deferral is not loss: the budget itself must not manufacture a new
	// drop class.
	if c.DroppedRetry > 0 && cfg.MaxRetries == 0 {
		t.Errorf("retry budget dropped %d packets; it may only defer", c.DroppedRetry)
	}
}

// TestOverloadDefaultsInert: Default() leaves the whole overload layer
// disarmed, so plain runs carry no overload machinery or stats.
func TestOverloadDefaultsInert(t *testing.T) {
	cfg := Default(ProtocolEWMAC)
	if cfg.Overload.Armed() {
		t.Fatal("default config arms the overload layer")
	}
	cfg.SimTime = 30 * time.Second
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resilience != nil {
		t.Error("unarmed run reported resilience stats")
	}
	c := res.Summary.MAC
	if n := c.DroppedQueueFull + c.DroppedOldest + c.DroppedExpired + c.DroppedShed + c.RetryDeferrals; n != 0 {
		t.Errorf("unarmed run produced %d overload-typed drops/deferrals", n)
	}
}

// TestOverloadConfigValidation: experiment.Validate surfaces overload
// misconfiguration with everything else.
func TestOverloadConfigValidation(t *testing.T) {
	cfg := Default(ProtocolEWMAC)
	cfg.Overload.Policy = mac.DropDeadline // no TTL
	cfg.Overload.PriorityEvery = -1
	err := cfg.Validate()
	if err == nil {
		t.Fatal("invalid overload config validated")
	}
	for _, want := range []string{"PacketTTL", "priority every"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %s", err, want)
		}
	}
}
