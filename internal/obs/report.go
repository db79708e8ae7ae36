package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"ewmac/internal/sim"
)

// tagIdx orders the simulator's event types for the Collector's flat
// per-tag counter table; tagNames maps each slot back to its Tag().
const (
	tagEmit = iota
	tagTx
	tagRx
	tagLoss
	tagState
	tagContention
	tagPeriod
	tagDeliver
	tagExtra
	tagRecovery
	tagDrop
	tagQueue
	tagOverload
	tagFault
	tagInvariant
	tagSample
	tagViolation
	tagCount
)

var tagNames = [tagCount]string{
	tagEmit:       FrameEmit{}.Tag(),
	tagTx:         TxBegin{}.Tag(),
	tagRx:         FrameRx{}.Tag(),
	tagLoss:       FrameLoss{}.Tag(),
	tagState:      MACState{}.Tag(),
	tagContention: Contention{}.Tag(),
	tagPeriod:     SlotPeriod{}.Tag(),
	tagDeliver:    Delivery{}.Tag(),
	tagExtra:      Extra{}.Tag(),
	tagRecovery:   Recovery{}.Tag(),
	tagDrop:       PacketDrop{}.Tag(),
	tagQueue:      QueueDepth{}.Tag(),
	tagOverload:   Overload{}.Tag(),
	tagFault:      Fault{}.Tag(),
	tagInvariant:  Invariant{}.Tag(),
	tagSample:     EngineSample{}.Tag(),
	tagViolation:  OracleViolation{}.Tag(),
}

// Collector is a Recorder that aggregates events into counters for the
// per-run report. It holds no references to frames and allocates
// nothing on the steady-state path: event types count in a flat
// per-tag table, each string field's small vocabulary counts in a
// tally, and per-node drop counts in a numeric-keyed table. The
// report's maps are built only when Report is called.
type Collector struct {
	// tags counts the known event types without touching a map on the
	// hot fold; events catches only unknown (future) types. The two are
	// merged into the report's string-keyed Events at snapshot time.
	tags   [tagCount]uint64
	events map[string]uint64

	losses     tally[string]
	contention tally[string]
	extras     tally[string]
	deny       tally[[2]string] // action, reason
	faults     tally[[2]string] // kind, action
	invariants tally[string]
	recovery   tally[string]
	drops      tally[string]
	overload   tally[string]
	violations tally[string]
	dropsNode  []uint64 // indexed by node id; see Report

	// Queue occupancy fold: network-wide peak depth and the sojourn
	// accumulator over serviced (popped) packets.
	queuePeak  int
	sojournSum float64
	sojournN   uint64

	delivered      uint64
	deliveredBits  uint64
	extraDelivered uint64
	lastAt         sim.Time
}

// tally counts one field's keys. The keys are the few interned
// constants the emission sites pass, so scanning a short slice in
// first-seen order is cheaper than hashing each key into a map.
type tally[K comparable] []tallied[K]

type tallied[K comparable] struct {
	key K
	n   uint64
}

// tallyCap covers every vocabulary but the fault kind/action pairs,
// so most tallies allocate once.
const tallyCap = 8

func (t *tally[K]) add(k K) {
	for i := range *t {
		if (*t)[i].key == k {
			(*t)[i].n++
			return
		}
	}
	if *t == nil {
		*t = make(tally[K], 0, tallyCap)
	}
	*t = append(*t, tallied[K]{k, 1})
}

// get returns k's count.
func (t tally[K]) get(k K) uint64 {
	for _, e := range t {
		if e.key == k {
			return e.n
		}
	}
	return 0
}

// counts returns the tally as the report's map, each key rendered by
// name; nil when nothing was counted.
func (t tally[K]) counts(name func(K) string) map[string]uint64 {
	if len(t) == 0 {
		return nil
	}
	out := make(map[string]uint64, len(t))
	for _, e := range t {
		out[name(e.key)] = e.n
	}
	return out
}

func plainKey(s string) string   { return s }
func pairKey(p [2]string) string { return p[0] + "/" + p[1] }

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Record implements Recorder.
func (c *Collector) Record(at sim.Time, e Event) {
	if at > c.lastAt {
		c.lastAt = at
	}
	switch ev := e.(type) {
	case *FrameEmit:
		c.tags[tagEmit]++
	case *TxBegin:
		c.tags[tagTx]++
	case *FrameRx:
		c.tags[tagRx]++
	case *FrameLoss:
		c.tags[tagLoss]++
		c.losses.add(ev.Reason)
	case *MACState:
		c.tags[tagState]++
	case *Contention:
		c.tags[tagContention]++
		c.contention.add(ev.Outcome)
	case *SlotPeriod:
		c.tags[tagPeriod]++
	case *Delivery:
		c.tags[tagDeliver]++
		c.delivered++
		c.deliveredBits += uint64(ev.Bits)
		if ev.Extra {
			c.extraDelivered++
		}
	case *Extra:
		c.tags[tagExtra]++
		c.extras.add(ev.Action)
		if ev.Reason != "" {
			c.deny.add([2]string{ev.Action, ev.Reason})
		}
	case *Recovery:
		c.tags[tagRecovery]++
		c.recovery.add(ev.Action)
	case *PacketDrop:
		c.tags[tagDrop]++
		c.drops.add(ev.Reason)
		id := int(uint16(ev.Node))
		if id >= len(c.dropsNode) {
			grown := make([]uint64, id+1)
			copy(grown, c.dropsNode)
			c.dropsNode = grown
		}
		c.dropsNode[id]++
	case *QueueDepth:
		c.tags[tagQueue]++
		if ev.Len > c.queuePeak {
			c.queuePeak = ev.Len
		}
		if ev.Op == QueuePop {
			c.sojournSum += ev.Sojourn.Seconds()
			c.sojournN++
		}
	case *Overload:
		c.tags[tagOverload]++
		c.overload.add(ev.Action)
	case *OracleViolation:
		c.tags[tagViolation]++
		c.violations.add(ev.Reason)
	case *Fault:
		c.tags[tagFault]++
		c.faults.add([2]string{ev.Kind, ev.Action})
	case *Invariant:
		c.tags[tagInvariant]++
		c.invariants.add(ev.Check)
	case *EngineSample:
		c.tags[tagSample]++
	default:
		if c.events == nil {
			c.events = make(map[string]uint64)
		}
		c.events[e.Tag()]++
	}
}

// RunReport is the per-run observability summary: raw event counts
// plus the derived rates that make a trial's behaviour checkable at a
// glance. It is what internal/experiment attaches to a Result when
// report collection is enabled.
type RunReport struct {
	// Protocol / Seed / Nodes identify the trial.
	Protocol string `json:"protocol"`
	Seed     int64  `json:"seed"`
	Nodes    int    `json:"nodes"`
	// DurationS is the measurement window in seconds.
	DurationS float64 `json:"duration_s"`

	// Events counts every recorded event by tag.
	Events map[string]uint64 `json:"events"`
	// Losses breaks phy.loss down by reason.
	Losses map[string]uint64 `json:"losses,omitempty"`
	// Contention breaks mac.contention down by outcome.
	Contention map[string]uint64 `json:"contention,omitempty"`
	// Extras breaks mac.extra down by action; DenyReasons refines the
	// deny/abort actions by the admission rule that fired.
	Extras      map[string]uint64 `json:"extras,omitempty"`
	DenyReasons map[string]uint64 `json:"deny_reasons,omitempty"`
	// Faults breaks fault.event down by kind/action (e.g.
	// "churn/inject"); Invariants breaks mac.invariant down by check.
	// Both are empty — and omitted — on fault-free runs.
	Faults     map[string]uint64 `json:"faults,omitempty"`
	Invariants map[string]uint64 `json:"invariants,omitempty"`
	// RecoveryEvents breaks mac.recovery down by action
	// (suspect/dead/resurrect/watchdog-reset); Drops breaks mac.drop
	// down by reason and DropsByNode by the dropping node. All empty —
	// and omitted — when the recovery layer never fired.
	RecoveryEvents map[string]uint64 `json:"recovery,omitempty"`
	Drops          map[string]uint64 `json:"drops,omitempty"`
	DropsByNode    map[string]uint64 `json:"drops_by_node,omitempty"`
	// Overload breaks mac.overload down by action (shed-begin/shed-end/
	// retry-defer); QueuePeakDepth is the deepest any transmit queue
	// got, and QueueMeanSojournS the mean generation→dequeue time over
	// serviced packets. All empty/zero — and omitted — when queue
	// occupancy events were never recorded.
	Overload          map[string]uint64 `json:"overload,omitempty"`
	QueuePeakDepth    int               `json:"queue_peak_depth,omitempty"`
	QueueMeanSojournS float64           `json:"queue_mean_sojourn_s,omitempty"`
	// OracleViolations breaks oracle.violation down by reason
	// (no-emission/half-duplex/capture/extra-guard). Empty — and
	// omitted — unless the always-on conformance verifier found the run
	// inconsistent with channel-level ground truth; any entry here means
	// the paper's Equation (1) or §4.2 safety property was broken.
	OracleViolations map[string]uint64 `json:"oracle_violations,omitempty"`

	// DeliveredPackets / DeliveredBits count unique payload deliveries
	// (they match mac.Counters exactly; see the experiment tests).
	DeliveredPackets uint64 `json:"delivered_packets"`
	DeliveredBits    uint64 `json:"delivered_bits"`
	ExtraDelivered   uint64 `json:"extra_delivered"`

	// Derived rates.
	ThroughputKbps   float64 `json:"throughput_kbps"`
	DeliveriesPerSec float64 `json:"deliveries_per_s"`
	// ExtraSuccessRate is completes/requests over the whole run.
	ExtraSuccessRate float64 `json:"extra_success_rate"`
	// ContentionWinRate is won/(won+timeout) RTS rounds.
	ContentionWinRate float64 `json:"contention_win_rate"`

	// Engine statistics for the run.
	EngineEvents     uint64  `json:"engine_events"`
	EngineEventsPerS float64 `json:"engine_events_per_wall_s"`
	VirtualWallRatio float64 `json:"virtual_wall_ratio"`

	// Resilience is filled by the experiment layer on fault-injected
	// runs from the resilience tracker; nil otherwise.
	Resilience *ResilienceStats `json:"resilience,omitempty"`
}

// ResilienceStats folds the fault timeline and the recovery event
// stream into per-run recovery metrics. It lives in obs (rather than
// internal/resilience, which produces it) so RunReport can embed it
// without an import cycle: resilience consumes obs events, and the
// experiment layer imports both.
type ResilienceStats struct {
	// Episodes counts paired inject→clear fault windows (churn,
	// outage, sync-loss — the kinds whose injectors emit a clear).
	Episodes int `json:"episodes"`
	// Recovered counts episodes where the afflicted node made protocol
	// progress after its fault cleared; Unrecovered is the rest.
	Recovered   int `json:"recovered"`
	Unrecovered int `json:"unrecovered"`
	// MeanTimeToRecoverS / MaxTimeToRecoverS summarize, over recovered
	// episodes, the delay from fault clear to the node's first
	// subsequent protocol progress (a delivery at the node or a
	// contention win/grant by it).
	MeanTimeToRecoverS float64 `json:"mean_time_to_recover_s"`
	MaxTimeToRecoverS  float64 `json:"max_time_to_recover_s"`
	// DegradedS is total simulated time with at least one paired fault
	// active anywhere in the network; CleanS is the rest of the run.
	DegradedS float64 `json:"degraded_s"`
	CleanS    float64 `json:"clean_s"`
	// DegradedDeliveries / CleanDeliveries split deliveries by whether
	// they landed inside a degraded window; DegradedDeliveryRatio is
	// the degraded delivery *rate* normalized by the clean rate (1 =
	// no degradation, 0 = total collapse under faults).
	DegradedDeliveries    uint64  `json:"degraded_deliveries"`
	CleanDeliveries       uint64  `json:"clean_deliveries"`
	DegradedDeliveryRatio float64 `json:"degraded_delivery_ratio"`
	// StrandedPackets counts packets still queued to a dead next hop
	// at the end of the run — traffic the recovery layer failed to
	// either deliver or account for with a typed drop.
	StrandedPackets int `json:"stranded_packets"`
	// Liveness/watchdog tallies, summed from the nodes' mac.Counters.
	SuspectMarks   uint64 `json:"suspect_marks"`
	DeadMarks      uint64 `json:"dead_marks"`
	Resurrections  uint64 `json:"resurrections"`
	WatchdogResets uint64 `json:"watchdog_resets"`
	// Overload tallies: merged windows with at least one admission gate
	// closed (episodes and total seconds, from the mac.overload stream),
	// and, from mac.Counters, packets refused by a closed gate and
	// retries postponed by an empty retry budget. All zero — and
	// omitted — when the overload layer never fired.
	OverloadEpisodes int     `json:"overload_episodes,omitempty"`
	OverloadS        float64 `json:"overload_s,omitempty"`
	ShedPackets      uint64  `json:"shed_packets,omitempty"`
	RetryDeferrals   uint64  `json:"retry_deferrals,omitempty"`
	// OracleViolations is the oracle's violation count for the run
	// (zero — and omitted — on conforming runs or without it). Folded
	// here so the resilience summary answers "did the protocol stay
	// safe under faults", not just "did it stay live".
	OracleViolations uint64 `json:"oracle_violations,omitempty"`
}

// Report reduces the collected counters to a RunReport. durationS is
// the measurement window; the caller fills the identity and engine
// fields it knows.
func (c *Collector) Report(durationS float64) *RunReport {
	r := &RunReport{
		DurationS:        durationS,
		Events:           c.eventTotals(),
		Losses:           c.losses.counts(plainKey),
		Contention:       c.contention.counts(plainKey),
		Extras:           c.extras.counts(plainKey),
		DenyReasons:      c.deny.counts(pairKey),
		Faults:           c.faults.counts(pairKey),
		Invariants:       c.invariants.counts(plainKey),
		RecoveryEvents:   c.recovery.counts(plainKey),
		Drops:            c.drops.counts(plainKey),
		DropsByNode:      c.dropsByNode(),
		Overload:         c.overload.counts(plainKey),
		OracleViolations: c.violations.counts(plainKey),
		QueuePeakDepth:   c.queuePeak,
		DeliveredPackets: c.delivered,
		DeliveredBits:    c.deliveredBits,
		ExtraDelivered:   c.extraDelivered,
	}
	if durationS > 0 {
		r.ThroughputKbps = float64(c.deliveredBits) / durationS / 1000
		r.DeliveriesPerSec = float64(c.delivered) / durationS
	}
	if req := c.extras.get(ExtraRequest); req > 0 {
		r.ExtraSuccessRate = float64(c.extras.get(ExtraComplete)) / float64(req)
	}
	won := c.contention.get(ContentionWon)
	if rounds := won + c.contention.get(ContentionTimeout); rounds > 0 {
		r.ContentionWinRate = float64(won) / float64(rounds)
	}
	if c.sojournN > 0 {
		r.QueueMeanSojournS = c.sojournSum / float64(c.sojournN)
	}
	return r
}

// eventTotals merges the flat per-tag counters with the unknown-type
// overflow map into the report's string-keyed event counts.
func (c *Collector) eventTotals() map[string]uint64 {
	n := len(c.events)
	for _, v := range c.tags {
		if v > 0 {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make(map[string]uint64, n)
	for k, v := range c.events {
		out[k] = v
	}
	for i, v := range c.tags {
		if v > 0 {
			out[tagNames[i]] = v
		}
	}
	return out
}

// dropsByNode formats the numeric-keyed drop table into the report's
// string-keyed map (decimal node ids, as the trace schema has always
// shown them). Snapshot-time only; the fold itself never formats.
func (c *Collector) dropsByNode() map[string]uint64 {
	var out map[string]uint64
	for id, n := range c.dropsNode {
		if n == 0 {
			continue
		}
		if out == nil {
			out = make(map[string]uint64)
		}
		out[strconv.Itoa(id)] = n
	}
	return out
}

// WriteJSON renders the report as indented JSON.
func (r *RunReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// promEscaper escapes a label value per the Prometheus text exposition
// format, which allows exactly three escapes: \\, \", and \n. Go's %q
// is close but wrong — it also emits \t and \xNN sequences, which
// Prometheus parsers reject.
var promEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// promLabel renders one label value, quoted and escaped for the
// exposition format.
func promLabel(v string) string {
	return `"` + promEscaper.Replace(v) + `"`
}

// WriteProm renders the report as a Prometheus-style text snapshot
// (counter and gauge families with a uasn_ prefix, labelled by
// protocol). Keys within a family are emitted in sorted order so the
// snapshot is diffable across runs.
func (r *RunReport) WriteProm(w io.Writer) error {
	var b strings.Builder
	label := func(extra string) string {
		if extra == "" {
			return "{protocol=" + promLabel(r.Protocol) + "}"
		}
		return "{protocol=" + promLabel(r.Protocol) + "," + extra + "}"
	}
	family := func(name, help, typ string, m map[string]uint64, lbl string) {
		if len(m) == 0 {
			return
		}
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "%s%s %d\n", name, label(lbl+"="+promLabel(k)), m[k])
		}
	}
	scalar := func(name, help, typ string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n%s%s %g\n",
			name, help, name, typ, name, label(""), v)
	}

	family("uasn_events_total", "Recorded events by tag.", "counter", r.Events, "event")
	family("uasn_losses_total", "PHY losses by reason.", "counter", r.Losses, "reason")
	family("uasn_contention_total", "Contention steps by outcome.", "counter", r.Contention, "outcome")
	family("uasn_extra_total", "Extra-communication steps by action.", "counter", r.Extras, "action")
	family("uasn_extra_denied_total", "Extra denials/aborts by reason.", "counter", r.DenyReasons, "reason")
	family("uasn_fault_events_total", "Injected fault lifecycle steps by kind/action.", "counter", r.Faults, "fault")
	family("uasn_invariant_checks_total", "Physical-consistency checks fired, by check.", "counter", r.Invariants, "check")
	family("uasn_recovery_events_total", "MAC liveness/watchdog recovery steps by action.", "counter", r.RecoveryEvents, "action")
	family("uasn_dropped_total", "MAC packet drops by reason.", "counter", r.Drops, "reason")
	family("uasn_dropped_by_node_total", "MAC packet drops by dropping node.", "counter", r.DropsByNode, "node")
	family("uasn_overload_total", "Overload-protection steps by action.", "counter", r.Overload, "action")
	family("uasn_oracle_violations_total", "Conformance-oracle violations by reason.", "counter", r.OracleViolations, "reason")
	if r.QueuePeakDepth > 0 {
		scalar("uasn_queue_peak_depth", "Deepest transmit-queue occupancy seen.", "gauge", float64(r.QueuePeakDepth))
		scalar("uasn_queue_mean_sojourn_seconds", "Mean generation-to-dequeue time of serviced packets.", "gauge", r.QueueMeanSojournS)
	}
	if shed := r.Drops[DropShed]; shed > 0 {
		scalar("uasn_shed_total", "Packets refused by the admission gate.", "counter", float64(shed))
	}
	scalar("uasn_delivered_packets", "Unique data payloads delivered.", "counter", float64(r.DeliveredPackets))
	scalar("uasn_delivered_bits", "Unique payload bits delivered.", "counter", float64(r.DeliveredBits))
	scalar("uasn_throughput_kbps", "Delivered payload rate over the window.", "gauge", r.ThroughputKbps)
	scalar("uasn_extra_success_rate", "Extra completes per request.", "gauge", r.ExtraSuccessRate)
	scalar("uasn_contention_win_rate", "Won RTS rounds per decided round.", "gauge", r.ContentionWinRate)
	scalar("uasn_engine_events", "Discrete events executed.", "counter", float64(r.EngineEvents))
	scalar("uasn_engine_events_per_wall_second", "Engine speed.", "gauge", r.EngineEventsPerS)
	scalar("uasn_virtual_wall_ratio", "Simulated seconds per wall second.", "gauge", r.VirtualWallRatio)
	if rs := r.Resilience; rs != nil {
		scalar("uasn_fault_episodes", "Paired inject/clear fault windows.", "counter", float64(rs.Episodes))
		scalar("uasn_fault_episodes_recovered", "Episodes with post-clear progress.", "counter", float64(rs.Recovered))
		scalar("uasn_fault_episodes_unrecovered", "Episodes without post-clear progress.", "counter", float64(rs.Unrecovered))
		scalar("uasn_recovery_mean_seconds", "Mean time from fault clear to progress.", "gauge", rs.MeanTimeToRecoverS)
		scalar("uasn_recovery_max_seconds", "Max time from fault clear to progress.", "gauge", rs.MaxTimeToRecoverS)
		scalar("uasn_degraded_seconds", "Simulated time with a paired fault active.", "counter", rs.DegradedS)
		scalar("uasn_degraded_delivery_ratio", "Degraded delivery rate over clean rate.", "gauge", rs.DegradedDeliveryRatio)
		scalar("uasn_stranded_packets", "Packets still queued to a dead peer at run end.", "gauge", float64(rs.StrandedPackets))
	}

	_, err := io.WriteString(w, b.String())
	return err
}
