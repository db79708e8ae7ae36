package oracle

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"ewmac/internal/obs"
	"ewmac/internal/packet"
	"ewmac/internal/phy"
	"ewmac/internal/sim"
)

// ---- Span semantics (pinned before the streaming rewrite) ----

// TestOverlapSemantics pins the exact interval algebra both oracles
// share: strictly-open overlap, so touching endpoints do not conflict,
// a zero-width span strictly inside a nonzero one does, and two
// zero-width spans at the same instant do not.
func TestOverlapSemantics(t *testing.T) {
	at := func(d time.Duration) sim.Time { return sim.At(d) }
	cases := []struct {
		name string
		a, b span
		want bool
	}{
		{"disjoint", span{at(0), at(time.Second)}, span{at(2 * time.Second), at(3 * time.Second)}, false},
		{"plain overlap", span{at(0), at(2 * time.Second)}, span{at(time.Second), at(3 * time.Second)}, true},
		{"nested", span{at(0), at(3 * time.Second)}, span{at(time.Second), at(2 * time.Second)}, true},
		// a ends exactly when b starts: the decode completes before the
		// next signal's first bit, so no conflict.
		{"boundary touch", span{at(0), at(time.Second)}, span{at(time.Second), at(2 * time.Second)}, false},
		// A zero-width span strictly inside a nonzero window conflicts…
		{"zero inside nonzero", span{at(time.Second), at(time.Second)}, span{at(0), at(2 * time.Second)}, true},
		// …but a zero-width span at the window's edge does not,
		{"zero at edge", span{at(time.Second), at(time.Second)}, span{at(0), at(time.Second)}, false},
		// and two zero-width spans at the same instant never overlap.
		{"zero vs zero", span{at(time.Second), at(time.Second)}, span{at(time.Second), at(time.Second)}, false},
	}
	for _, c := range cases {
		if got := c.a.overlaps(c.b); got != c.want {
			t.Errorf("%s: a.overlaps(b) = %v, want %v", c.name, got, c.want)
		}
		if got := c.b.overlaps(c.a); got != c.want {
			t.Errorf("%s (reversed): b.overlaps(a) = %v, want %v", c.name, got, c.want)
		}
	}
}

// ---- Shared edge-case fixtures run against both oracles ----

// verifier abstracts the batch and streaming oracles so every
// edge-case fixture pins both implementations to the same verdict.
type verifier interface {
	RecordEmission(now sim.Time, src, dst packet.NodeID, f *packet.Frame, delay time.Duration, levelDB float64)
	RecordReception(now sim.Time, node packet.NodeID, f *packet.Frame)
	RecordLoss(now sim.Time, node packet.NodeID, f *packet.Frame, reason phy.LossReason)
}

// violationsOf runs (or snapshots) the verifier's full verdict as
// sorted human-readable strings so batch and streaming compare 1:1.
func violationsOf(v verifier) []string {
	var vs []Violation
	switch o := v.(type) {
	case *Oracle:
		vs = append(o.Verify(), o.VerifyExtraSafety()...)
	case *keeping:
		vs = o.vs
	case *emissionTx:
		return violationsOf(o.txVerifier)
	default:
		panic("unknown verifier")
	}
	out := make([]string, len(vs))
	for i, x := range vs {
		out[i] = x.String()
	}
	sort.Strings(out)
	return out
}

// keeping is a streaming verifier whose violations a sink keeps, so
// tests can compare them with the batch oracle's one by one.
type keeping struct {
	*Streaming
	vs []Violation
}

func newKeeping(bitRate, captureDB float64, horizon time.Duration) *keeping {
	k := &keeping{Streaming: NewStreaming(bitRate, captureDB, horizon)}
	k.SetSink(obs.RecorderFunc(func(_ sim.Time, e obs.Event) {
		if v, ok := e.(*obs.OracleViolation); ok {
			k.vs = append(k.vs, Violation{Node: v.Node, Key: keyString(keyOf(v.Frame)), Reason: v.Detail})
		}
	}))
	return k
}

// eachOracle runs fn once with the batch oracle and once with the
// streaming one, so a shared fixture pins both. Both verifiers take
// transmission spans from the phy.tx tap in production; the fixtures
// derive them from emissions instead (see emissionTx).
func eachOracle(t *testing.T, bitRate, captureDB float64, fn func(t *testing.T, v verifier)) {
	t.Helper()
	t.Run("batch", func(t *testing.T) { fn(t, &emissionTx{New(bitRate, captureDB), bitRate}) })
	t.Run("streaming", func(t *testing.T) {
		fn(t, &emissionTx{newKeeping(bitRate, captureDB, 5*time.Second), bitRate})
	})
}

// txVerifier is a verifier that also takes transmission spans.
type txVerifier interface {
	verifier
	RecordTx(now sim.Time, node packet.NodeID, dur time.Duration)
}

// emissionTx records a transmission span at the source with every
// emission (RecordTx suppresses the exact duplicates a multi-receiver
// broadcast produces).
type emissionTx struct {
	txVerifier
	bitRate float64
}

func (c *emissionTx) RecordEmission(now sim.Time, src, dst packet.NodeID, f *packet.Frame, delay time.Duration, levelDB float64) {
	c.txVerifier.RecordEmission(now, src, dst, f, delay, levelDB)
	c.RecordTx(now, src, f.TxDuration(c.bitRate))
}

// TestBoundaryTouchIsNotInterference: an arrival ending exactly when
// the received frame's window starts (and another starting exactly
// when it ends) is not interference under Equation (1).
func TestBoundaryTouchIsNotInterference(t *testing.T) {
	const bitRate = 12000
	eachOracle(t, bitRate, 10, func(t *testing.T, v verifier) {
		mid := dataFrame(1, 3, 1, time.Second)
		dur := mid.TxDuration(bitRate) // 176 ms at 12 kbit/s
		before := dataFrame(2, 3, 2, time.Second)
		after := dataFrame(4, 3, 3, time.Second)
		// before's window is [1s−dur, 1s], mid's is [1s, 1s+dur],
		// after's is [1s+dur, 1s+2dur]: all touching, none overlapping.
		v.RecordEmission(sim.At(time.Second-dur), 2, 3, before, 0, 130)
		v.RecordEmission(sim.At(time.Second), 1, 3, mid, 0, 130)
		v.RecordEmission(sim.At(time.Second+dur), 4, 3, after, 0, 130)
		v.RecordReception(sim.At(time.Second), 3, before)
		v.RecordReception(sim.At(time.Second+dur), 3, mid)
		v.RecordReception(sim.At(time.Second+2*dur), 3, after)
		if vs := violationsOf(v); len(vs) != 0 {
			t.Errorf("touching windows flagged as interference: %v", vs)
		}
	})
}

// TestZeroDurationFramesDoNotConflict: at an extreme bit rate every
// frame's on-air time truncates to zero; two such frames arriving at
// the same instant occupy zero-width windows that cannot overlap, so
// both decodes are conformant.
func TestZeroDurationFramesDoNotConflict(t *testing.T) {
	const bitRate = 1e15
	eachOracle(t, bitRate, 10, func(t *testing.T, v verifier) {
		a := dataFrame(1, 3, 1, time.Second)
		b := dataFrame(2, 3, 2, time.Second)
		if d := a.TxDuration(bitRate); d != 0 {
			t.Fatalf("fixture expects zero duration, got %v", d)
		}
		v.RecordEmission(sim.At(time.Second), 1, 3, a, 100*time.Millisecond, 130)
		v.RecordEmission(sim.At(time.Second), 2, 3, b, 100*time.Millisecond, 130)
		v.RecordReception(sim.At(time.Second+100*time.Millisecond), 3, a)
		v.RecordReception(sim.At(time.Second+100*time.Millisecond), 3, b)
		if vs := violationsOf(v); len(vs) != 0 {
			t.Errorf("zero-width windows flagged: %v", vs)
		}
	})
}

// TestCaptureMarginEqualityIsViolation: the capture test is inclusive
// (other ≥ mine − margin), so an interferer sitting exactly on the
// margin still invalidates the decode.
func TestCaptureMarginEqualityIsViolation(t *testing.T) {
	const bitRate = 12000
	eachOracle(t, bitRate, 10, func(t *testing.T, v verifier) {
		mine := dataFrame(1, 3, 1, time.Second)
		other := dataFrame(2, 3, 2, time.Second)
		v.RecordEmission(sim.At(time.Second), 1, 3, mine, 100*time.Millisecond, 130)
		v.RecordEmission(sim.At(time.Second), 2, 3, other, 100*time.Millisecond, 120) // exactly margin dB down
		v.RecordReception(sim.At(time.Second+100*time.Millisecond+mine.TxDuration(bitRate)), 3, mine)
		if vs := violationsOf(v); len(vs) != 1 {
			t.Errorf("capture-margin equality: want exactly 1 violation, got %v", vs)
		}
		// One decibel below the margin the decode is conformant.
		v2 := New(bitRate, 10)
		v2.RecordEmission(sim.At(time.Second), 1, 3, mine, 100*time.Millisecond, 130)
		v2.RecordEmission(sim.At(time.Second), 2, 3, other, 100*time.Millisecond, 119)
		v2.RecordReception(sim.At(time.Second+100*time.Millisecond+mine.TxDuration(bitRate)), 3, mine)
		if vs := v2.Verify(); len(vs) != 0 {
			t.Errorf("sub-margin interferer flagged: %v", vs)
		}
	})
}

// TestDuplicateReceptionsVerifiedIndependently: a frame key claimed
// received twice at the same node is checked twice — a violating
// window yields one violation per claim, a clean one yields none.
func TestDuplicateReceptionsVerifiedIndependently(t *testing.T) {
	const bitRate = 12000
	eachOracle(t, bitRate, 10, func(t *testing.T, v verifier) {
		mine := dataFrame(1, 3, 1, time.Second)
		jam := dataFrame(2, 3, 2, time.Second)
		v.RecordEmission(sim.At(time.Second), 1, 3, mine, 100*time.Millisecond, 130)
		v.RecordEmission(sim.At(time.Second), 2, 3, jam, 100*time.Millisecond, 130)
		end := sim.At(time.Second + 100*time.Millisecond + mine.TxDuration(bitRate))
		v.RecordReception(end, 3, mine)
		v.RecordReception(end, 3, mine)
		if vs := violationsOf(v); len(vs) != 2 {
			t.Errorf("duplicate claims: want 2 violations (one per claim), got %v", vs)
		}
	})
}

// ---- Batch vs streaming agreement ----

// TestBatchStreamingAgreement replays one recorded fixture — clean
// receptions, a half-duplex breach, a capture breach, a phantom
// reception, and an extra-guard breach — into both oracles and
// requires identical verdicts, violation for violation.
func TestBatchStreamingAgreement(t *testing.T) {
	const bitRate = 12000
	const captureDB = 10
	streaming := newKeeping(bitRate, captureDB, 5*time.Second)
	batch := &emissionTx{New(bitRate, captureDB), bitRate}
	stream := &emissionTx{streaming, bitRate}

	replay := func(v verifier) {
		// t=1s: clean unicast 1→3.
		clean := dataFrame(1, 3, 1, time.Second)
		v.RecordEmission(sim.At(time.Second), 1, 3, clean, 100*time.Millisecond, 130)
		v.RecordReception(sim.At(time.Second+100*time.Millisecond+clean.TxDuration(bitRate)), 3, clean)

		// t=3s: node 5 decodes while itself transmitting.
		rx := dataFrame(1, 5, 2, 3*time.Second)
		tx := dataFrame(5, 2, 3, 3*time.Second+50*time.Millisecond)
		v.RecordEmission(sim.At(3*time.Second), 1, 5, rx, 100*time.Millisecond, 130)
		v.RecordEmission(sim.At(3*time.Second+50*time.Millisecond), 5, 2, tx, 200*time.Millisecond, 130)
		v.RecordReception(sim.At(3*time.Second+100*time.Millisecond+rx.TxDuration(bitRate)), 5, rx)

		// t=5s: equal-power overlap decoded anyway.
		strong := dataFrame(1, 7, 4, 5*time.Second)
		weak := dataFrame(2, 7, 5, 5*time.Second)
		v.RecordEmission(sim.At(5*time.Second), 1, 7, strong, 100*time.Millisecond, 130)
		v.RecordEmission(sim.At(5*time.Second), 2, 7, weak, 100*time.Millisecond, 130)
		v.RecordReception(sim.At(5*time.Second+100*time.Millisecond+strong.TxDuration(bitRate)), 7, strong)

		// t=7s: reception with no recorded emission at all.
		ghost := dataFrame(9, 4, 6, 7*time.Second)
		v.RecordReception(sim.At(7*time.Second), 4, ghost)

		// t=9s: negotiated Data lost at its destination under an
		// overlapping extra frame (§4.2 guard breach)…
		victim := dataFrame(1, 6, 7, 9*time.Second)
		extra := &packet.Frame{Kind: packet.KindEXData, Src: 2, Dst: 8, Seq: 8, DataBits: 2048, Timestamp: 9 * time.Second}
		v.RecordEmission(sim.At(9*time.Second), 1, 6, victim, 100*time.Millisecond, 130)
		v.RecordEmission(sim.At(9*time.Second), 2, 6, extra, 100*time.Millisecond, 130)
		v.RecordLoss(sim.At(9*time.Second+100*time.Millisecond+victim.TxDuration(bitRate)), 6, victim, phy.LossCollision)

		// …while the same shape with an RTS victim is exempt.
		rts := &packet.Frame{Kind: packet.KindRTS, Src: 1, Dst: 6, Seq: 9, Timestamp: 11 * time.Second}
		ex2 := &packet.Frame{Kind: packet.KindEXR, Src: 2, Dst: 8, Seq: 10, Timestamp: 11 * time.Second}
		v.RecordEmission(sim.At(11*time.Second), 1, 6, rts, 100*time.Millisecond, 130)
		v.RecordEmission(sim.At(11*time.Second), 2, 6, ex2, 100*time.Millisecond, 130)
		v.RecordLoss(sim.At(11*time.Second+100*time.Millisecond+rts.TxDuration(bitRate)), 6, rts, phy.LossCollision)
	}
	replay(batch)
	replay(stream)

	got, want := violationsOf(stream), violationsOf(batch)
	if len(want) != 4 {
		t.Fatalf("fixture should trip the batch oracle 4 times (half-duplex, capture, no-emission, guard breach); got %v", want)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("oracles disagree:\n batch:     %v\n streaming: %v", want, got)
	}
	st := streaming.Stats()
	if st.Violations != uint64(len(want)) || st.Receptions != 4 || st.Losses != 2 {
		t.Errorf("streaming stats inconsistent with verdict: %+v", st)
	}
	if st.ByReason[obs.OracleHalfDuplex] != 1 || st.ByReason[obs.OracleCapture] != 1 ||
		st.ByReason[obs.OracleNoEmission] != 1 || st.ByReason[obs.OracleExtraGuard] != 1 {
		t.Errorf("streaming by-reason tallies wrong: %v", st.ByReason)
	}
}

// ---- Streaming-only properties ----

// TestStreamingConsumesObsEvents drives the verifier through its
// obs.Recorder face — the production tap — and checks a fabricated
// equal-power overlap is caught and re-emitted as a typed violation
// event through the sink.
func TestStreamingConsumesObsEvents(t *testing.T) {
	const bitRate = 12000
	s := NewStreaming(bitRate, 10, 5*time.Second)
	var emitted []obs.OracleViolation
	s.SetSink(obs.RecorderFunc(func(at sim.Time, e obs.Event) {
		if v, ok := e.(*obs.OracleViolation); ok {
			emitted = append(emitted, *v)
		}
	}))

	strong := dataFrame(1, 3, 1, time.Second)
	weak := dataFrame(2, 3, 2, time.Second)
	dur := strong.TxDuration(bitRate)
	s.Record(sim.At(time.Second), &obs.FrameEmit{Src: 1, Dst: 3, Frame: strong, Delay: 100 * time.Millisecond, LevelDB: 130})
	s.Record(sim.At(time.Second), &obs.TxBegin{Node: 1, Frame: strong, Dur: dur})
	s.Record(sim.At(time.Second), &obs.FrameEmit{Src: 2, Dst: 3, Frame: weak, Delay: 100 * time.Millisecond, LevelDB: 130})
	s.Record(sim.At(time.Second), &obs.TxBegin{Node: 2, Frame: weak, Dur: dur})
	s.Record(sim.At(time.Second+100*time.Millisecond+dur), &obs.FrameRx{Node: 3, Frame: strong})

	if len(emitted) != 1 {
		t.Fatalf("want 1 violation event through the sink, got %d", len(emitted))
	}
	if emitted[0].Reason != obs.OracleCapture || emitted[0].Node != 3 || emitted[0].Frame != strong {
		t.Errorf("violation event wrong: %+v", emitted[0])
	}
	// Its own event class must be ignored, so wiring the verifier into
	// the same fan-out it emits to cannot recurse.
	before := s.Stats().Violations
	s.Record(sim.At(2*time.Second), &emitted[0])
	if got := s.Stats().Violations; got != before {
		t.Errorf("verifier consumed its own violation event: %d -> %d", before, got)
	}
}

// TestStreamingHalfDuplexFromTxTap: the production half-duplex check
// uses the phy.tx tap (one span per transmission), not emission-derived
// spans.
func TestStreamingHalfDuplexFromTxTap(t *testing.T) {
	const bitRate = 12000
	s := NewStreaming(bitRate, 10, 5*time.Second)
	rx := dataFrame(1, 3, 1, time.Second)
	dur := rx.TxDuration(bitRate)
	s.Record(sim.At(time.Second), &obs.FrameEmit{Src: 1, Dst: 3, Frame: rx, Delay: 100 * time.Millisecond, LevelDB: 130})
	// Node 3 keys up in the middle of rx's arrival window.
	s.Record(sim.At(time.Second+150*time.Millisecond), &obs.TxBegin{Node: 3, Frame: dataFrame(3, 2, 9, time.Second+150*time.Millisecond), Dur: dur})
	s.Record(sim.At(time.Second+100*time.Millisecond+dur), &obs.FrameRx{Node: 3, Frame: rx})
	st := s.Stats()
	if st.ByReason[obs.OracleHalfDuplex] != 1 {
		t.Errorf("half-duplex breach via tx tap missed: %+v", st)
	}
}

// TestStreamingBoundedMemory runs a long steady stream — far more
// frames than the indexes may retain — and checks eviction keeps the
// peak index sizes bounded while the verdict stays clean.
func TestStreamingBoundedMemory(t *testing.T) {
	const bitRate = 12000
	const horizon = 2 * time.Second
	s := NewStreaming(bitRate, 10, horizon)
	f := dataFrame(1, 2, 0, 0)
	dur := f.TxDuration(bitRate)
	const n = 20000
	const gap = 500 * time.Millisecond
	for i := 0; i < n; i++ {
		at := sim.At(time.Duration(i) * gap)
		f := dataFrame(1, 2, uint32(i), at.Duration())
		s.Record(at, &obs.FrameEmit{Src: 1, Dst: 2, Frame: f, Delay: 100 * time.Millisecond, LevelDB: 130})
		s.Record(at, &obs.TxBegin{Node: 1, Frame: f, Dur: dur})
		s.Record(at.Add(100*time.Millisecond+dur), &obs.FrameRx{Node: 2, Frame: f})
	}
	st := s.Stats()
	if st.Violations != 0 {
		t.Fatalf("clean stream flagged: %+v", st)
	}
	if st.Receptions != n || st.Emissions != n {
		t.Fatalf("stream miscounted: %+v", st)
	}
	// Live span count is bounded by horizon/gap plus one compaction
	// period of slack — far below the 20 000 recorded frames.
	bound := int(horizon/gap) + compactEvery + 8
	if st.PeakArrivals > bound || st.PeakTxSpans > bound {
		t.Errorf("indexes grew past the eviction bound %d: %+v", bound, st)
	}
	if st.Evicted == 0 || st.LiveArrivals > bound {
		t.Errorf("eviction never ran: %+v", st)
	}
}

// TestStreamingEvictionNeverCausesFalseVerdicts: receptions verified
// long after their interferers were candidates for eviction still see
// them if (and only if) they are within the sound lookback window.
func TestStreamingEvictionNeverCausesFalseVerdicts(t *testing.T) {
	const bitRate = 12000
	s := NewStreaming(bitRate, 10, time.Second)
	// Fill well past one compaction period with old clean traffic.
	f0 := dataFrame(1, 2, 0, 0)
	dur := f0.TxDuration(bitRate)
	var at sim.Time
	for i := 0; i < 3*compactEvery; i++ {
		at = sim.At(time.Duration(i) * time.Second)
		f := dataFrame(1, 2, uint32(i), at.Duration())
		s.Record(at, &obs.FrameEmit{Src: 1, Dst: 2, Frame: f, Delay: 0, LevelDB: 130})
		s.Record(at.Add(dur), &obs.FrameRx{Node: 2, Frame: f})
	}
	// Now an overlap right at the head: interferer recorded, then the
	// victim decode claimed — eviction of *old* spans must not have
	// taken the live interferer with it.
	base := at.Add(time.Second)
	jam := dataFrame(3, 2, 900, base.Duration())
	mine := dataFrame(1, 2, 901, base.Duration())
	s.Record(base, &obs.FrameEmit{Src: 3, Dst: 2, Frame: jam, Delay: 0, LevelDB: 130})
	s.Record(base, &obs.FrameEmit{Src: 1, Dst: 2, Frame: mine, Delay: 0, LevelDB: 130})
	s.Record(base.Add(dur), &obs.FrameRx{Node: 2, Frame: mine})
	st := s.Stats()
	if st.ByReason[obs.OracleCapture] != 1 {
		t.Errorf("live interferer lost to eviction: %+v", st)
	}
	if st.Evicted == 0 {
		t.Errorf("fixture never exercised eviction: %+v", st)
	}
}

// BenchmarkStreamingRecord measures the steady-state per-frame cost of
// always-on verification: one emission + tx + reception cycle.
func BenchmarkStreamingRecord(b *testing.B) {
	const bitRate = 12000
	s := NewStreaming(bitRate, 10, 2*time.Second)
	f := dataFrame(1, 2, 0, 0)
	dur := f.TxDuration(bitRate)
	emit := obs.FrameEmit{Src: 1, Dst: 2, Frame: f, Delay: 100 * time.Millisecond, LevelDB: 130}
	tx := obs.TxBegin{Node: 1, Frame: f, Dur: dur}
	rx := obs.FrameRx{Node: 2, Frame: f}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := sim.At(time.Duration(i) * 500 * time.Millisecond)
		f.Seq = uint32(i)
		f.Timestamp = at.Duration()
		s.Record(at, &emit)
		s.Record(at, &tx)
		s.Record(at.Add(100*time.Millisecond+dur), &rx)
	}
	if st := s.Stats(); st.Violations != 0 {
		b.Fatalf("benchmark stream flagged: %+v", st)
	}
}
