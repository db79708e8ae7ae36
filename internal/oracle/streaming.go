package oracle

import (
	"fmt"
	"sort"
	"time"

	"ewmac/internal/obs"
	"ewmac/internal/packet"
	"ewmac/internal/phy"
	"ewmac/internal/sim"
)

// Streaming is the always-on form of the Equation-(1) oracle: instead
// of accumulating a whole run and cross-examining it afterwards in
// O(receptions × arrivals), it verifies each reception the instant it
// is recorded against per-receiver time-ordered interval indexes
// (binary-search overlap queries), and evicts arrivals and
// transmission spans once they fall behind a watermark no future
// reception window can reach, so memory stays bounded over arbitrarily
// long runs.
//
// Incremental verification is sound because the event stream arrives
// in simulation-time order and every record the checks consult is
// already present when a reception is verified: an arrival overlapping
// a reception window ending at the decode instant must have started —
// and therefore been emitted — strictly earlier, and likewise for
// transmission spans. Eviction is safe with the same argument run
// backwards: a span whose end is more than one maximum frame duration
// (plus the configured propagation horizon) behind the newest event
// can never overlap a window verified later.
//
// Streaming implements obs.Recorder, consuming the channel/PHY tap
// events (chan.emit, phy.tx, phy.rx, phy.loss) directly from the
// per-run recorder fan-out. Violations are tallied and — when a sink
// is attached with SetSink — each one is re-emitted as a typed obs.OracleViolation event so it
// reaches the trace, the report collector, and the resilience tracker
// like any other observation. The verifier re-emits from inside its own
// Record, so it goes last in the fan-out it emits into: every other
// recorder has then finished with the triggering event, none is
// re-entered mid-Record (the JSONL exporter is not re-entrant), and a
// violation's trace line follows the event it condemns. The sink must
// be recorded into on the goroutine that calls Record: with the fan-out
// behind an obs.Stager, that is the replayed fan-out, not the stager.
type Streaming struct {
	// BitRate converts frame sizes to duration; CaptureDB is the SINR
	// margin above which a stronger frame survives a weaker overlapping
	// one. Match the acoustic model's SINR threshold.
	BitRate   float64
	CaptureDB float64
	// Horizon is extra lookback headroom before eviction, normally the
	// maximum propagation delay across the interference range. The
	// event-order argument above makes one max frame duration
	// sufficient; the horizon keeps the watermark conservative against
	// same-instant scheduling ties and future taps that observe
	// arrivals at emission rather than decode time.
	Horizon time.Duration

	sink obs.Recorder

	// Indexed by NodeID, grown to the largest ID recorded so far.
	arrivals []arrivalIndex
	tx       []txIndex
	maxDur   time.Duration

	// emitFrame is the frame of the latest emission and emitKey and
	// emitDur its key and duration: a broadcast's fan-out records one
	// emission per receiver, all for the same frame.
	emitFrame *packet.Frame
	emitKey   frameKey
	emitDur   time.Duration

	receptions uint64
	losses     uint64
	emissions  uint64
	violations uint64
	byReason   map[string]uint64

	liveArrivals int
	liveTx       int
	peakArrivals int
	peakTx       int
	evicted      uint64
}

// compactEvery is how many inserts an index absorbs between eviction
// sweeps; each sweep is O(live), so eviction cost is amortized O(1)
// per insert.
const compactEvery = 64

type arrivalIndex struct {
	// spans is sorted by span.start (ties keep insertion order). The
	// receiver is the index's node, so an arrival does not record it.
	spans   []arrival
	inserts int
}

type txIndex struct {
	spans   []span
	inserts int
}

// NewStreaming returns a streaming verifier for the given PHY
// parameters. horizon is the propagation-delay headroom added to the
// eviction watermark (the caller normally passes the model's maximum
// delay scaled by the channel's interference-range factor).
func NewStreaming(bitRate, captureDB float64, horizon time.Duration) *Streaming {
	return &Streaming{
		BitRate:   bitRate,
		CaptureDB: captureDB,
		Horizon:   horizon,
		byReason:  make(map[string]uint64),
	}
}

// SetSink attaches the recorder violations are re-emitted to as
// obs.OracleViolation events. The verifier ignores its own events, so
// the sink may be (and normally is) the fan-out the verifier itself
// belongs to.
func (s *Streaming) SetSink(r obs.Recorder) { s.sink = r }

var _ obs.Recorder = (*Streaming)(nil)

// Record implements obs.Recorder, folding the channel/PHY ground-truth
// taps into the indexes and verifying receptions and losses as they
// stream past. Event records are not retained past the call (frames
// are copy-on-write and safe to keep; see the obs ownership rule).
func (s *Streaming) Record(at sim.Time, e obs.Event) {
	switch ev := e.(type) {
	case *obs.FrameEmit:
		s.RecordEmission(at, ev.Src, ev.Dst, ev.Frame, ev.Delay, ev.LevelDB)
	case *obs.TxBegin:
		s.RecordTx(at, ev.Node, ev.Dur)
	case *obs.FrameRx:
		s.RecordReception(at, ev.Node, ev.Frame)
	case *obs.FrameLoss:
		s.RecordLoss(at, ev.Node, ev.Frame, phy.LossReason(ev.ReasonCode))
	}
}

// RecordEmission logs one scheduled delivery: the frame's arrival
// interval at dst. It does not derive the transmission span: that
// comes from RecordTx (the phy.tx tap), once per transmission instead
// of once per receiver.
func (s *Streaming) RecordEmission(now sim.Time, src, dst packet.NodeID, f *packet.Frame, delay time.Duration, levelDB float64) {
	s.emissions++
	if f != s.emitFrame {
		s.emitFrame, s.emitKey, s.emitDur = f, keyOf(f), f.TxDuration(s.BitRate)
		if s.emitDur > s.maxDur {
			s.maxDur = s.emitDur
		}
	}
	a := arrival{
		key:     s.emitKey,
		span:    span{now.Add(delay), now.Add(delay + s.emitDur)},
		levelDB: levelDB,
	}
	s.arrivals = growTo(s.arrivals, dst)
	idx := &s.arrivals[dst]
	// Emissions mostly arrive in start order, so the new span usually
	// goes last; ties keep insertion order either way.
	if n := len(idx.spans); n == 0 || idx.spans[n-1].span.start <= a.span.start {
		idx.spans = append(idx.spans, a)
	} else {
		i := sort.Search(n, func(i int) bool { return idx.spans[i].span.start > a.span.start })
		idx.spans = append(idx.spans, arrival{})
		copy(idx.spans[i+1:], idx.spans[i:])
		idx.spans[i] = a
	}
	s.liveArrivals++
	if s.liveArrivals > s.peakArrivals {
		s.peakArrivals = s.liveArrivals
	}
	if idx.inserts++; idx.inserts >= compactEvery {
		idx.inserts = 0
		s.compactArrivals(idx, s.watermark(now))
	}
}

// RecordTx logs one transmission span at node (the phy.tx tap). An
// exact-duplicate span is suppressed so emission-derived fixtures that
// record one span per receiver stay comparable with the batch reference in the tests.
func (s *Streaming) RecordTx(now sim.Time, node packet.NodeID, dur time.Duration) {
	if dur > s.maxDur {
		s.maxDur = dur
	}
	sp := span{now, now.Add(dur)}
	s.tx = growTo(s.tx, node)
	idx := &s.tx[node]
	i := sort.Search(len(idx.spans), func(i int) bool { return idx.spans[i].start > sp.start })
	for j := i - 1; j >= 0 && idx.spans[j].start == sp.start; j-- {
		if idx.spans[j] == sp {
			return
		}
	}
	idx.spans = append(idx.spans, span{})
	copy(idx.spans[i+1:], idx.spans[i:])
	idx.spans[i] = sp
	s.liveTx++
	if s.liveTx > s.peakTx {
		s.peakTx = s.liveTx
	}
	if idx.inserts++; idx.inserts >= compactEvery {
		idx.inserts = 0
		s.compactTx(idx, s.watermark(now))
	}
}

// RecordReception verifies one claimed successful decode the moment it
// is recorded (now is the decode instant = the arrival's end).
func (s *Streaming) RecordReception(now sim.Time, node packet.NodeID, f *packet.Frame) {
	s.receptions++
	a, ok := s.findArrival(now, node, f)
	if !ok {
		s.violate(now, node, f, obs.OracleNoEmission,
			fmt.Sprintf("reception of %v with no matching channel emission", keyString(keyOf(f))))
		return
	}
	if int(node) < len(s.tx) {
		idx := &s.tx[node]
		hi := sort.Search(len(idx.spans), func(i int) bool { return !idx.spans[i].start.Before(a.span.end) })
		for i := hi - 1; i >= 0; i-- {
			if !idx.spans[i].start.Add(s.maxDur).After(a.span.start) {
				break
			}
			if idx.spans[i].overlaps(a.span) {
				s.violate(now, node, f, obs.OracleHalfDuplex,
					fmt.Sprintf("decoded %v while transmitting (half-duplex violation)", keyString(a.key)))
			}
		}
	}
	s.eachOverlap(node, a.span, func(other *arrival) {
		if other.key == a.key {
			return
		}
		if other.levelDB >= a.levelDB-s.CaptureDB {
			s.violate(now, node, f, obs.OracleCapture,
				fmt.Sprintf("decoded %v despite overlapping %v within the capture margin (Equation (1) violation)",
					keyString(a.key), keyString(other.key)))
		}
	})
}

// RecordLoss verifies the paper's §4.2 guarantee for one reported
// loss: a negotiated CTS/Data/Ack lost to a collision at its intended
// destination must not overlap an extra-communication frame (RTS
// contention is exempt, as in the paper).
func (s *Streaming) RecordLoss(now sim.Time, node packet.NodeID, f *packet.Frame, reason phy.LossReason) {
	s.losses++
	if reason != phy.LossCollision || f.Dst != node {
		return
	}
	switch f.Kind {
	case packet.KindCTS, packet.KindData, packet.KindAck:
	default:
		return
	}
	victim, ok := s.findArrival(now, node, f)
	if !ok {
		return
	}
	s.eachOverlap(node, victim.span, func(other *arrival) {
		if other.key == victim.key || !other.key.kind.IsExtra() {
			return
		}
		s.violate(now, node, f, obs.OracleExtraGuard,
			fmt.Sprintf("negotiated %v corrupted by extra frame %v (guard breach)",
				keyString(victim.key), keyString(other.key)))
	})
}

// findArrival locates the live arrival a decode or loss at now refers
// to. The stream's decode instant is exactly the arrival's end, so the
// primary lookup is a binary search for start == now − duration; the
// bounded fallback scan keeps fabricated fixtures (whose claimed
// instants need not line up) matched the way the batch reference in the tests
// matches them.
func (s *Streaming) findArrival(now sim.Time, node packet.NodeID, f *packet.Frame) (arrival, bool) {
	if int(node) >= len(s.arrivals) {
		return arrival{}, false
	}
	idx := &s.arrivals[node]
	k := keyOf(f)
	start := now.Add(-f.TxDuration(s.BitRate))
	i := sort.Search(len(idx.spans), func(i int) bool { return !idx.spans[i].span.start.Before(start) })
	for ; i < len(idx.spans) && idx.spans[i].span.start == start; i++ {
		if idx.spans[i].key == k {
			return idx.spans[i], true
		}
	}
	for _, a := range idx.spans {
		if a.key == k {
			return a, true
		}
	}
	return arrival{}, false
}

// eachOverlap calls fn for every live arrival at node overlapping w,
// found by binary search for the first start past the window and a
// backward scan bounded by the maximum frame duration.
func (s *Streaming) eachOverlap(node packet.NodeID, w span, fn func(*arrival)) {
	if int(node) >= len(s.arrivals) {
		return
	}
	idx := &s.arrivals[node]
	hi := sort.Search(len(idx.spans), func(i int) bool { return !idx.spans[i].span.start.Before(w.end) })
	for i := hi - 1; i >= 0; i-- {
		a := &idx.spans[i]
		if !a.span.start.Add(s.maxDur).After(w.start) {
			break
		}
		if a.span.overlaps(w) {
			fn(a)
		}
	}
}

// growTo extends a per-node index slice to hold node.
func growTo[T any](s []T, node packet.NodeID) []T {
	if n := int(node) + 1; n > len(s) {
		s = append(s, make([]T, n-len(s))...)
	}
	return s
}

// watermark is the instant behind which no span can influence a future
// check: every later-verified window starts no earlier than now minus
// one maximum frame duration, with Horizon as extra headroom.
func (s *Streaming) watermark(now sim.Time) sim.Time {
	return now.Add(-(s.Horizon + s.maxDur))
}

func (s *Streaming) compactArrivals(idx *arrivalIndex, wm sim.Time) {
	kept := idx.spans[:0]
	for _, a := range idx.spans {
		if a.span.end.After(wm) {
			kept = append(kept, a)
		}
	}
	s.evicted += uint64(len(idx.spans) - len(kept))
	s.liveArrivals -= len(idx.spans) - len(kept)
	idx.spans = kept
}

func (s *Streaming) compactTx(idx *txIndex, wm sim.Time) {
	kept := idx.spans[:0]
	for _, sp := range idx.spans {
		if sp.end.After(wm) {
			kept = append(kept, sp)
		}
	}
	s.evicted += uint64(len(idx.spans) - len(kept))
	s.liveTx -= len(idx.spans) - len(kept)
	idx.spans = kept
}

// violate tallies one violation and re-emits it as a typed obs event through the sink (which may be the fan-out
// the verifier itself is part of; its own events are ignored by
// Record's switch).
func (s *Streaming) violate(now sim.Time, node packet.NodeID, f *packet.Frame, reason, detail string) {
	s.violations++
	s.byReason[reason]++
	if s.sink != nil {
		obs.OracleViolation{Node: node, Frame: f, Reason: reason, Detail: detail}.Emit(s.sink, now)
	}
}

// Stats is the verifier's summary: what it checked, what it found, and
// how much state it held doing so (the Live/Peak counters are what the
// bounded-memory soak asserts on).
type Stats struct {
	// Emissions / Receptions / Losses count the ground-truth records
	// consumed.
	Emissions  uint64 `json:"emissions"`
	Receptions uint64 `json:"receptions"`
	Losses     uint64 `json:"losses"`
	// Violations counts every conformance violation; ByReason breaks
	// them down by the obs.Oracle* reason constants.
	Violations uint64            `json:"violations"`
	ByReason   map[string]uint64 `json:"by_reason,omitempty"`
	// LiveArrivals / LiveTxSpans are the interval-index sizes at
	// snapshot time; the Peak values are their run maxima; Evicted is
	// the total spans dropped past the watermark.
	LiveArrivals int    `json:"live_arrivals"`
	LiveTxSpans  int    `json:"live_tx_spans"`
	PeakArrivals int    `json:"peak_arrivals"`
	PeakTxSpans  int    `json:"peak_tx_spans"`
	Evicted      uint64 `json:"evicted"`
}

// Stats snapshots the verifier.
func (s *Streaming) Stats() Stats {
	by := make(map[string]uint64, len(s.byReason))
	for k, v := range s.byReason {
		by[k] = v
	}
	if len(by) == 0 {
		by = nil
	}
	return Stats{
		Emissions:    s.emissions,
		Receptions:   s.receptions,
		Losses:       s.losses,
		Violations:   s.violations,
		ByReason:     by,
		LiveArrivals: s.liveArrivals,
		LiveTxSpans:  s.liveTx,
		PeakArrivals: s.peakArrivals,
		PeakTxSpans:  s.peakTx,
		Evicted:      s.evicted,
	}
}
