package obs

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"ewmac/internal/packet"
	"ewmac/internal/sim"
)

// stagedEvent returns event i of an interleaved stream that cycles
// through all numKinds event types, each with fields that differ from
// event to event.
func stagedEvent(i int, frames []*packet.Frame) Event {
	n := packet.NodeID(i%50 + 1)
	f := frames[i%len(frames)]
	d := time.Duration(i) * time.Microsecond
	s := fmt.Sprint("s", i)
	switch eventKind(i % int(numKinds)) {
	case kFrameEmit:
		return &FrameEmit{Src: f.Src, Dst: n, Frame: f, Delay: d, LevelDB: float64(i) / 7}
	case kTxBegin:
		return &TxBegin{Node: n, Frame: f, Dur: d}
	case kFrameRx:
		return &FrameRx{Node: n, Frame: f}
	case kFrameLoss:
		return &FrameLoss{Node: n, Frame: f, ReasonCode: uint8(i), Reason: s}
	case kMACState:
		return &MACState{Node: n, From: s, To: "idle", Slot: int64(i)}
	case kContention:
		return &Contention{Node: n, Peer: n + 1, Outcome: s, Slot: int64(i), XID: uint64(i)}
	case kSlotPeriod:
		return &SlotPeriod{Node: n, Peer: n + 2, Period: s, Slot: int64(i)}
	case kDelivery:
		return &Delivery{Node: n, Origin: n + 3, Seq: uint32(i), Bits: i, Latency: d, Extra: i%2 == 0, XID: uint64(i)}
	case kExtra:
		return &Extra{Node: n, Peer: n + 4, Action: s, Reason: "r", XID: uint64(i), Parent: uint64(i + 1)}
	case kRecovery:
		return &Recovery{Node: n, Peer: n + 5, Action: s, Detail: "d"}
	case kPacketDrop:
		return &PacketDrop{Node: n, Peer: n + 6, Reason: s, Origin: n, Seq: uint32(i)}
	case kQueueDepth:
		return &QueueDepth{Node: n, Len: i, Op: s, Sojourn: d}
	case kOverload:
		return &Overload{Node: n, Action: s, Len: i}
	case kOracleViolation:
		return &OracleViolation{Node: n, Frame: f, Reason: s, Detail: "x"}
	case kFault:
		return &Fault{Node: n, Kind: s, Action: FaultInject, Detail: "y"}
	case kInvariant:
		return &Invariant{Node: n, Check: s, Detail: "z"}
	case kEngineSample:
		return &EngineSample{QueueDepth: i, EventsPerSec: float64(i) * 1.5, VirtualWallRatio: float64(i) / 3}
	}
	panic("unreachable")
}

func stagedFrames() []*packet.Frame {
	frames := make([]*packet.Frame, 11)
	for i := range frames {
		frames[i] = &packet.Frame{Kind: packet.KindData, Src: packet.NodeID(i + 1), Dst: 7, Seq: uint32(i), DataBits: 1024}
	}
	return frames
}

// seen is one event as a recorder saw it: its instant, and a copy of
// the record (a recorder must copy to keep it) or the value event.
type seen struct {
	at sim.Time
	ev any
}

func copyRecorder(out *[]seen) Recorder {
	return RecorderFunc(func(at sim.Time, e Event) {
		v := reflect.ValueOf(e)
		if v.Kind() == reflect.Pointer {
			v = v.Elem()
		}
		*out = append(*out, seen{at, v.Interface()})
	})
}

// TestStagerReplaysInOrder: every event type, interleaved over enough
// events to cycle every batch several times, replays in the order it
// was recorded with equal values, and the batches' records are not
// the producer's.
func TestStagerReplaysInOrder(t *testing.T) {
	frames := stagedFrames()
	var direct, replayed []seen
	ref := copyRecorder(&direct)
	var aliased bool
	st := NewStager(Multi(copyRecorder(&replayed), RecorderFunc(func(_ sim.Time, e Event) {
		if fe, ok := e.(*FrameEmit); ok && fe.Frame == nil {
			aliased = true
		}
	})))
	n := 4*stagerBatches*batchEvents + 37
	for i := range n {
		at := sim.At(time.Duration(i/3) * time.Millisecond)
		e := stagedEvent(i, frames)
		ref.Record(at, e)
		st.Record(at, e)
		if fe, ok := e.(*FrameEmit); ok {
			fe.Frame = nil // the producer reuses its record at once
		}
	}
	st.Close()
	if aliased {
		t.Error("a replayed record aliases the producer's")
	}
	if len(replayed) != n {
		t.Fatalf("replayed %d events, want %d", len(replayed), n)
	}
	for i := range direct {
		if !reflect.DeepEqual(direct[i], replayed[i]) {
			t.Fatalf("event %d replayed as %+v, want %+v", i, replayed[i], direct[i])
		}
	}
}

// TestStagerUnknownEventInline: an event type the stager has no slice
// for is neither dropped nor reordered: it drains the batches and is
// recorded inline, on the recording goroutine, after every event
// before it.
func TestStagerUnknownEventInline(t *testing.T) {
	frames := stagedFrames()
	var direct, replayed []seen
	var want, got bytes.Buffer
	jd, js := NewJSONL(&want), NewJSONL(&got)
	ref := Multi(copyRecorder(&direct), jd)
	st := NewStager(Multi(copyRecorder(&replayed), js))
	n := 3 * batchEvents
	for i := range n {
		at := sim.At(time.Duration(i) * time.Millisecond)
		var e Event = stagedEvent(i, frames)
		if i%300 == 299 {
			e = oddEvent{N: i}
		}
		ref.Record(at, e)
		st.Record(at, e)
	}
	st.Close()
	if err := jd.Close(); err != nil {
		t.Fatal(err)
	}
	if err := js.Close(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct, replayed) {
		t.Fatal("replayed stream differs from the recorded one")
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatal("staged JSONL differs from the inline exporter's")
	}
	if c := strings.Count(got.String(), `"event":"test.odd"`); c != n/300 {
		t.Errorf("trace has %d test.odd lines, want %d", c, n/300)
	}
}

// waitGoroutines waits for the goroutine count to fall back to want:
// an observer goroutine may still be returning when Close does.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > want; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want %d", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// recordUntilPanic records events into st until one panics and returns
// that panic's value and the count of events recorded before it.
func recordUntilPanic(st *Stager, n int) (v any, recorded int) {
	defer func() { v = recover() }()
	frames := stagedFrames()
	for recorded = 0; recorded < n; recorded++ {
		st.Record(0, stagedEvent(recorded, frames))
	}
	st.Close()
	return nil, recorded
}

// TestStagerRecorderPanic: a recorder that panics on the observer
// goroutine panics again on the recording goroutine at the next
// hand-off, so a producer never blocks on a dead observer, and the
// observer goroutine is gone.
func TestStagerRecorderPanic(t *testing.T) {
	base := runtime.NumGoroutine()
	st := NewStager(RecorderFunc(func(sim.Time, Event) { panic("replay broke") }))
	done := make(chan struct{})
	var v any
	var recorded int
	go func() {
		defer close(done)
		v, recorded = recordUntilPanic(st, 100*batchEvents)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("producer blocked on a dead observer")
	}
	rp, ok := v.(*RecorderPanic)
	if !ok {
		t.Fatalf("recovered %v (%T), want a *RecorderPanic", v, v)
	}
	if rp.Value != "replay broke" || !strings.Contains(string(rp.Stack), "TestStagerRecorderPanic") {
		t.Errorf("panic = %v, stack:\n%s", rp.Value, rp.Stack)
	}
	// The observer dies replaying the first batch; the producer can
	// still fill the batches it holds, and panics at the hand-off after.
	if recorded > stagerBatches*batchEvents {
		t.Errorf("producer recorded %d events before the panic reached it", recorded)
	}
	st.Close() // closed by the re-raise: neither panics nor blocks
	st.Stop()
	waitGoroutines(t, base)
}

// TestStagerPanicAtClose: a panic in the last, partial batch surfaces
// at Close.
func TestStagerPanicAtClose(t *testing.T) {
	base := runtime.NumGoroutine()
	st := NewStager(RecorderFunc(func(_ sim.Time, e Event) {
		if _, ok := e.(*Fault); ok {
			panic("fault")
		}
	}))
	v, recorded := recordUntilPanic(st, int(kFault)+1)
	if _, ok := v.(*RecorderPanic); !ok || recorded != int(kFault)+1 {
		t.Fatalf("recovered %v after %d events, want a *RecorderPanic at Close", v, recorded)
	}
	waitGoroutines(t, base)
}

// TestStagerStopDropsLateRecords: Stop ends the observer without a
// re-raise, and records after it are dropped.
func TestStagerStopDropsLateRecords(t *testing.T) {
	base := runtime.NumGoroutine()
	var got []seen
	st := NewStager(copyRecorder(&got))
	st.Record(0, &Delivery{Seq: 1})
	st.Stop()
	st.Record(0, &Delivery{Seq: 2})
	st.Close()
	if len(got) != 1 {
		t.Errorf("recorder saw %d events, want the 1 recorded before Stop", len(got))
	}
	waitGoroutines(t, base)
}
