package experiment

import (
	"errors"
	"io"
	"time"

	"ewmac/internal/acoustic"
	"ewmac/internal/channel"
	"ewmac/internal/mac"
	"ewmac/internal/obs"
	"ewmac/internal/obs/slotprof"
	"ewmac/internal/obs/span"
	"ewmac/internal/oracle"
	"ewmac/internal/phy"
	"ewmac/internal/sim"
)

// Observe configures the unified observability layer for one run. All
// fields are optional; the zero value (or a nil *Observe) disables
// everything, in which case emission sites across the stack reduce to
// one nil check each.
type Observe struct {
	// Recorder receives every structured event, in addition to the
	// sinks implied by the fields below. Use it for custom analysis or
	// test assertions over the live event stream. It is called on one
	// goroutine, in event order, and never concurrently with itself.
	// When Trace or Verify is on, that goroutine is not the one
	// simulating the run: the whole recorder fan-out is
	// replayed on an observer goroutine (obs.Stager), which Run joins
	// before it returns. A Recorder must then touch nothing the
	// simulation mutates; the events themselves, and the frames they
	// name, are safe.
	Recorder obs.Recorder
	// Trace, when non-nil, receives the trace-v2 JSONL stream: one
	// event object per line, each carrying "at" (fractional simulated
	// seconds) and "event" (the stable tag). See the README's
	// Observability section for the schema.
	Trace io.Writer
	// TimeSeries, when non-nil, receives periodic CSV samples of engine
	// and protocol health (queue depth, events/s, backlog, slot
	// utilization, extra-communication success, energy).
	TimeSeries io.Writer
	// SampleEvery is the TimeSeries period in simulated time
	// (default 1s).
	SampleEvery time.Duration
	// Spans, when non-nil, receives the causal-span JSONL stream: raw
	// events folded into one line per handshake, extra exchange,
	// contention round, and fault window, linked by exchange-lineage
	// IDs. See internal/obs/span.
	Spans io.Writer
	// SlotProfile, when non-nil, receives the per-slot waiting-resource
	// profile: every nanosecond of every node's slots classified into
	// tx/rx/wait/reclaimed/guard, with the exploitation ratio
	// reclaimed/(reclaimed+wait) per node and for the run. See
	// internal/obs/slotprof.
	SlotProfile io.Writer
	// Report enables event aggregation into Result.Report.
	Report bool
	// Verify arms the streaming conformance oracle: every reception is
	// checked against the paper's Equation (1) (plus the §4.2
	// extra-communication guard) as it is recorded, with bounded memory.
	// Violations surface as typed oracle.violation trace events, in
	// RunReport.OracleViolations, in the resilience summary, and in
	// Result.Conformance. Purely observational: protocol behaviour and
	// RNG streams are untouched.
	Verify bool
}

// runObs bundles the per-run observability consumers.
type runObs struct {
	// rec is what the simulation records into: the fan-out itself, or
	// the stager that replays it on an observer goroutine.
	rec       obs.Recorder
	stager    *obs.Stager
	jsonl     *obs.JSONL
	collector *obs.Collector
	sampler   *obs.Sampler
	spans     *span.Assembler
	slotprof  *slotprof.Profiler
	slotSum   *slotprof.Summary
	verifier  *oracle.Streaming
	closed    bool
}

// newRunObs assembles the recorder fan-out for one run; rec stays nil
// when nothing is enabled. slots and model parameterize the slot
// profiler and the conformance verifier (they are protocol-
// independent, so every consumer of one run sees the same slot grid
// and PHY thresholds). extra splices additional recorders (the
// resilience tracker on fault-injected runs) into the fan-out.
//
// A run with the trace or the verifier on stages its events and
// replays the whole fan-out on an observer goroutine, which takes the
// recorders' cost off the simulating one. Every other run keeps the
// fan-out inline: the report, the tracker, the span assembler, the
// slot profiler (whose cost is mostly its Finish, after the run) and a
// custom recorder each cost the simulating goroutine less per event
// than staging the event does (DESIGN.md, "Observers off the
// simulation thread").
func newRunObs(cfg Config, slots mac.SlotConfig, model *acoustic.Model, extra ...obs.Recorder) *runObs {
	ro := &runObs{}
	recs := append([]obs.Recorder(nil), extra...)
	if o := cfg.Observe; o != nil {
		recs = append(recs, o.Recorder)
		if o.Trace != nil {
			ro.jsonl = obs.NewJSONL(o.Trace)
			recs = append(recs, ro.jsonl)
		}
		if o.Spans != nil {
			ro.spans = span.New(o.Spans)
			ro.spans.WriteMeta(cfg.Protocol.DisplayName(), cfg.Seed, cfg.Nodes)
			recs = append(recs, ro.spans)
		}
		if o.SlotProfile != nil {
			ro.slotprof = slotprof.New(slotprof.Config{
				Protocol: cfg.Protocol.DisplayName(),
				SlotLen:  slots.Len(),
				BitRate:  model.BitRate(),
				Start:    sim.At(cfg.Warmup),
				End:      sim.At(cfg.SimTime),
				Writer:   o.SlotProfile,
			})
			recs = append(recs, ro.slotprof)
		}
		if o.Report {
			ro.collector = obs.NewCollector()
			recs = append(recs, ro.collector)
		}
		if o.Verify {
			// Eviction lookback must cover the farthest interference
			// arrival the channel will schedule.
			horizon := time.Duration(float64(model.MaxDelay()) * channel.InterferenceRangeFactor)
			ro.verifier = oracle.NewStreaming(model.BitRate(), model.SINRThresholdDB, horizon)
		}
	}
	if ro.verifier != nil {
		// The verifier re-emits each violation into the fan-out it sits
		// in, from inside its own Record. Placed last, it does so once
		// every other recorder has finished with the triggering event:
		// none is re-entered mid-Record, and the violation line follows
		// the event it condemns.
		recs = append(recs, ro.verifier)
	}
	fan := obs.Multi(recs...)
	ro.rec = fan
	if o := cfg.Observe; o != nil && (o.Trace != nil || o.Verify) {
		ro.stager = obs.NewStager(fan)
		ro.rec = ro.stager
	}
	if ro.verifier != nil {
		// The replay-side fan-out, never the stager: violations are
		// found on the observer goroutine and recorded there.
		ro.verifier.SetSink(fan)
	}
	return ro
}

// stop ends the observer goroutine, if any, without re-raising a
// recorder panic: Run defers it for the paths that leave before
// closeStreams, a panic included.
func (ro *runObs) stop() {
	if ro.stager != nil {
		ro.stager.Stop()
	}
}

// closeStreams drains every buffered stream consumer: the stager
// replays what it holds and joins its observer goroutine (re-raising a
// recorder's panic here), the sampler and trace flush, the span
// assembler closes out still-open spans, and the slot profiler
// classifies and writes its records. Nothing may read a recorder of the
// fan-out before this returns. It is called from the normal completion
// path and from the budget-abort path alike, so a run cut mid-stream
// still leaves parseable, flushed output files. Safe to call twice; the
// second call is a no-op.
func (ro *runObs) closeStreams(eng *sim.Engine) error {
	if ro.closed {
		return nil
	}
	ro.closed = true
	if ro.stager != nil {
		ro.stager.Close()
	}
	var errs []error
	if ro.sampler != nil {
		errs = append(errs, ro.sampler.Flush())
	}
	if ro.jsonl != nil {
		errs = append(errs, ro.jsonl.Close())
	}
	if ro.spans != nil {
		errs = append(errs, ro.spans.Close())
	}
	if ro.slotprof != nil {
		sum, err := ro.slotprof.Finish(eng.Now())
		ro.slotSum = &sum
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// startSampler arms the time-series sampler with the domain columns
// the protocol stack can answer. No-op unless TimeSeries is set.
func (ro *runObs) startSampler(cfg Config, eng *sim.Engine, slots mac.SlotConfig,
	protos []mac.Protocol, modems []*phy.Modem, until sim.Time) error {
	o := cfg.Observe
	if o == nil || o.TimeSeries == nil {
		return nil
	}
	// slot_util needs per-interval deltas; the closures share this state.
	var lastFrames uint64
	lastAt := eng.Now()
	framesTx := func() uint64 {
		var n uint64
		for _, m := range modems {
			n += m.Stats().FramesTx
		}
		return n
	}
	counters := func() mac.Counters {
		var sum mac.Counters
		for _, p := range protos {
			sum = sum.Add(p.Counters())
		}
		return sum
	}
	cols := []obs.Column{
		{Name: "tx_backlog", Fn: func() float64 {
			total := 0
			for _, p := range protos {
				total += p.QueueLen()
			}
			return float64(total)
		}},
		{Name: "slot_util", Fn: func() float64 {
			// Fraction of the network's slot capacity spent transmitting
			// over the last interval: one frame occupies one slot, and
			// capacity is nodes × elapsed slots.
			now := eng.Now()
			frames := framesTx()
			dSlots := now.Sub(lastAt).Seconds() / slots.Len().Seconds()
			df := frames - lastFrames
			lastFrames, lastAt = frames, now
			if dSlots <= 0 || len(modems) == 0 {
				return 0
			}
			return float64(df) / (dSlots * float64(len(modems)))
		}},
		{Name: "delivered", Fn: func() float64 {
			return float64(counters().DeliveredPackets)
		}},
		{Name: "extra_success_rate", Fn: func() float64 {
			c := counters()
			if c.ExtraAttempts == 0 {
				return 0
			}
			return float64(c.ExtraCompletions) / float64(c.ExtraAttempts)
		}},
		{Name: "energy_j", Fn: func() float64 {
			var j float64
			for _, m := range modems {
				if b, err := m.Energy(); err == nil {
					j += b.Total()
				}
			}
			return j
		}},
	}
	s, err := obs.NewSampler(eng, o.TimeSeries, o.SampleEvery, cols...)
	if err != nil {
		return err
	}
	s.SetRecorder(ro.rec)
	s.Start(until)
	ro.sampler = s
	return nil
}

// finish flushes the stream consumers and, when report collection is
// on, reduces the collected events to a RunReport stamped with the
// trial identity and engine statistics.
func (ro *runObs) finish(cfg Config, eng *sim.Engine) (*obs.RunReport, error) {
	if err := ro.closeStreams(eng); err != nil {
		return nil, err
	}
	if ro.collector == nil {
		return nil, nil
	}
	rep := ro.collector.Report((cfg.SimTime - cfg.Warmup).Seconds())
	rep.Protocol = cfg.Protocol.DisplayName()
	rep.Seed = cfg.Seed
	rep.Nodes = cfg.Nodes
	ls := eng.LoopStats()
	rep.EngineEvents = ls.Executed
	if w := ls.Wall.Seconds(); w > 0 {
		rep.EngineEventsPerS = float64(ls.Executed) / w
		rep.VirtualWallRatio = ls.Now.Seconds() / w
	}
	return rep, nil
}
