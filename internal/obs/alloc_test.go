package obs

import (
	"io"
	"testing"
	"time"

	"ewmac/internal/packet"
	"ewmac/internal/sim"
)

// These tests pin the steady-state record path to zero allocations
// per event: the pooled Emit helpers box nothing, the hand-rolled
// JSONL encoders format into recycled buffers, and the Collector's
// folds intern every key they touch. A regression here is the
// "obs-on tax" coming back; the benchjson alloc gate in CI guards the
// same property end to end.

// steadyEvents covers every producer-side event shape. The frames are
// shared (the channel hands every receiver the transmitted frame) and
// the strings are the interned constants real emission sites pass.
func steadyState() (at sim.Time, f *packet.Frame, emit func(Recorder)) {
	f = &packet.Frame{
		Kind: packet.KindData, Src: 3, Dst: 7, Seq: 41,
		Origin: 3, DataBits: 2048, XID: 99,
	}
	at = sim.At(1500 * time.Millisecond)
	// FrameEmit has no pooled Emit: its producer, guarded by a nil
	// check, reuses one record.
	frameEmit := &FrameEmit{Src: 3, Dst: 7, Frame: f, Delay: 137 * time.Millisecond, LevelDB: 118.25}
	emit = func(r Recorder) {
		if r != nil {
			r.Record(at, frameEmit)
		}
		TxBegin{Node: 3, Frame: f, Dur: 682 * time.Millisecond}.Emit(r, at)
		FrameRx{Node: 7, Frame: f}.Emit(r, at)
		FrameLoss{Node: 7, Frame: f, Reason: "collision"}.Emit(r, at)
		MACState{Node: 2, From: "idle", To: "wait-cts", Slot: 19}.Emit(r, at)
		Contention{Node: 2, Peer: 5, Outcome: ContentionWon, Slot: 19, XID: 99}.Emit(r, at)
		SlotPeriod{Node: 4, Peer: 6, Period: "III", Slot: 20}.Emit(r, at)
		Delivery{Node: 7, Origin: 3, Seq: 41, Bits: 2048, Latency: time.Second, XID: 99}.Emit(r, at)
		Extra{Node: 1, Peer: 2, Action: ExtraDeny, Reason: "gap-too-small", XID: 5, Parent: 4}.Emit(r, at)
		Recovery{Node: 3, Peer: 8, Action: RecoverySuspect, Detail: "2 failures"}.Emit(r, at)
		PacketDrop{Node: 5, Peer: 9, Reason: DropRetryExhausted, Origin: 5, Seq: 77}.Emit(r, at)
		OracleViolation{Node: 7, Frame: f, Reason: OracleCapture, Detail: "overlap"}.Emit(r, at)
		Fault{Node: 6, Kind: "outage", Action: FaultInject}.Emit(r, at)
		Invariant{Node: 1, Check: "impossible-rx", Detail: "d"}.Emit(r, at)
		EngineSample{QueueDepth: 42, EventsPerSec: 180443.75, VirtualWallRatio: 12.5}.Emit(r, at)
	}
	return
}

func assertZeroAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	if avg := testing.AllocsPerRun(200, f); avg != 0 {
		t.Errorf("%s: %.2f allocs per steady-state event batch, want 0", name, avg)
	}
}

// skipUnderRace skips a pin on the pooled record path under -race: the
// race detector makes sync.Pool drop Puts at random, so pooled records
// are allocated afresh. The non-race test run keeps the pin.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("-race makes sync.Pool drop Puts at random; pinned by the non-race run")
	}
}

func TestRecordPathZeroAllocNoop(t *testing.T) {
	skipUnderRace(t)
	_, _, emit := steadyState()
	noop := RecorderFunc(func(sim.Time, Event) {})
	assertZeroAllocs(t, "noop recorder", func() { emit(noop) })
}

func TestRecordPathZeroAllocNilRecorder(t *testing.T) {
	_, _, emit := steadyState()
	assertZeroAllocs(t, "nil recorder", func() { emit(nil) })
}

func TestRecordPathZeroAllocJSONL(t *testing.T) {
	skipUnderRace(t)
	_, _, emit := steadyState()
	j := NewJSONL(io.Discard)
	defer j.Close()
	assertZeroAllocs(t, "jsonl exporter", func() { emit(j) })
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestRecordPathZeroAllocJSONLInterleavedFrames names more frames in
// turn than the frame cache has ways, so every frame line misses and
// rewrites a way: the rewrite reuses the way's buffer.
func TestRecordPathZeroAllocJSONLInterleavedFrames(t *testing.T) {
	skipUnderRace(t)
	at, _, _ := steadyState()
	frames := make([]*packet.Frame, frameWays+3)
	emits := make([]*FrameEmit, len(frames))
	for i := range frames {
		frames[i] = &packet.Frame{
			Kind: packet.KindData, Src: packet.NodeID(i + 1), Dst: 7, Seq: uint32(i),
			Origin: 3, DataBits: 2048, XID: uint64(1000 + i),
		}
		emits[i] = &FrameEmit{Src: frames[i].Src, Dst: 7, Frame: frames[i], Delay: time.Duration(i) * time.Millisecond, LevelDB: -87.43218765432198}
	}
	j := NewJSONL(io.Discard)
	defer j.Close()
	emit := func() {
		for i, f := range frames {
			j.Record(at, emits[i])
			TxBegin{Node: f.Src, Frame: f, Dur: 682 * time.Millisecond}.Emit(j, at)
		}
		for i := len(frames) - 1; i >= 0; i-- {
			FrameRx{Node: 7, Frame: frames[i]}.Emit(j, at)
		}
	}
	emit() // warm the pools and the staging buffer
	assertZeroAllocs(t, "jsonl exporter, interleaved frames", emit)
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestRecordPathZeroAllocCollector(t *testing.T) {
	skipUnderRace(t)
	_, _, emit := steadyState()
	c := NewCollector()
	emit(c) // warm the interning maps and per-node slices
	assertZeroAllocs(t, "collector", func() { emit(c) })
}

// TestRecordPathZeroAllocFanOut is the benchjson obs-on stack: noop
// analysis recorder + trace exporter + report collector behind one
// Multi, the configuration the headline ewmac/obs-on benchmark runs.
func TestRecordPathZeroAllocFanOut(t *testing.T) {
	skipUnderRace(t)
	_, _, emit := steadyState()
	j := NewJSONL(io.Discard)
	defer j.Close()
	c := NewCollector()
	rec := Multi(RecorderFunc(func(sim.Time, Event) {}), j, c)
	emit(rec) // warm pools, interners, and staging buffers
	assertZeroAllocs(t, "full fan-out", func() { emit(rec) })
}

// TestRecordPathZeroAllocStager: once its batches are warm, staging
// an event copies it into a batch slice that already has room, and the
// hand-offs move pooled batches through buffered channels.
func TestRecordPathZeroAllocStager(t *testing.T) {
	skipUnderRace(t)
	_, _, emit := steadyState()
	st := NewStager(RecorderFunc(func(sim.Time, Event) {}))
	defer st.Close()
	// Every batch must see the full mix before the count starts.
	for range 2 * stagerBatches * batchEvents {
		emit(st)
	}
	assertZeroAllocs(t, "stager", func() { emit(st) })
}
