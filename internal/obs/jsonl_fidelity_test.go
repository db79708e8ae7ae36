package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"ewmac/internal/packet"
	"ewmac/internal/sim"
)

// This file pins the hand-rolled trace-v2 encoders (encode.go,
// jsonl.go) to encoding/json, byte for byte. The reference below is
// the reflection-based encoder the exporter used through PR 7,
// reproduced verbatim; if the two ever disagree on any event, the
// golden trace hashes in the determinism suite would silently drift,
// so this test enumerates every event type and the adversarial
// corners (html-escaped strings, invalid UTF-8, float formatting
// boundaries, omitempty boundaries) explicitly.

type refFrameRef struct {
	Src    uint16 `json:"src"`
	Dst    uint16 `json:"dst"`
	Kind   string `json:"kind"`
	Seq    uint32 `json:"seq"`
	Origin uint16 `json:"origin,omitempty"`
	Bits   int    `json:"bits"`
	XID    uint64 `json:"xid,omitempty"`
}

func refFlatten(f *packet.Frame) refFrameRef {
	return refFrameRef{
		Src:    uint16(f.Src),
		Dst:    uint16(f.Dst),
		Kind:   f.Kind.String(),
		Seq:    f.Seq,
		Origin: uint16(f.Origin),
		Bits:   f.Bits(),
		XID:    f.XID,
	}
}

type refHeader struct {
	At    float64 `json:"at"`
	Event string  `json:"event"`
}

// refEncode is the PR-7 reflection encoder, kept as the fidelity
// reference.
func refEncode(w *bytes.Buffer, at sim.Time, e Event) error {
	h := refHeader{At: at.Seconds(), Event: e.Tag()}
	var line any
	switch ev := e.(type) {
	case *FrameEmit:
		line = struct {
			refHeader
			refFrameRef
			DelayS  float64 `json:"delay"`
			LevelDB float64 `json:"level_db"`
		}{h, refFlatten(ev.Frame), ev.Delay.Seconds(), ev.LevelDB}
	case *TxBegin:
		line = struct {
			refHeader
			Node uint16 `json:"node"`
			refFrameRef
			DurS float64 `json:"dur"`
		}{h, uint16(ev.Node), refFlatten(ev.Frame), ev.Dur.Seconds()}
	case *FrameRx:
		line = struct {
			refHeader
			Node uint16 `json:"node"`
			refFrameRef
		}{h, uint16(ev.Node), refFlatten(ev.Frame)}
	case *FrameLoss:
		line = struct {
			refHeader
			Node uint16 `json:"node"`
			refFrameRef
			Reason string `json:"reason"`
		}{h, uint16(ev.Node), refFlatten(ev.Frame), ev.Reason}
	case *MACState:
		line = struct {
			refHeader
			Node uint16 `json:"node"`
			From string `json:"from"`
			To   string `json:"to"`
			Slot int64  `json:"slot"`
		}{h, uint16(ev.Node), ev.From, ev.To, ev.Slot}
	case *Contention:
		line = struct {
			refHeader
			Node    uint16 `json:"node"`
			Peer    uint16 `json:"peer"`
			Outcome string `json:"outcome"`
			Slot    int64  `json:"slot"`
			XID     uint64 `json:"xid,omitempty"`
		}{h, uint16(ev.Node), uint16(ev.Peer), ev.Outcome, ev.Slot, ev.XID}
	case *SlotPeriod:
		line = struct {
			refHeader
			Node   uint16 `json:"node"`
			Peer   uint16 `json:"peer"`
			Period string `json:"period"`
			Slot   int64  `json:"slot"`
		}{h, uint16(ev.Node), uint16(ev.Peer), ev.Period, ev.Slot}
	case *Delivery:
		line = struct {
			refHeader
			Node     uint16  `json:"node"`
			Origin   uint16  `json:"origin"`
			Seq      uint32  `json:"seq"`
			Bits     int     `json:"bits"`
			LatencyS float64 `json:"latency"`
			Extra    bool    `json:"extra,omitempty"`
			XID      uint64  `json:"xid,omitempty"`
		}{h, uint16(ev.Node), uint16(ev.Origin), ev.Seq, ev.Bits, ev.Latency.Seconds(), ev.Extra, ev.XID}
	case *Extra:
		line = struct {
			refHeader
			Node   uint16 `json:"node"`
			Peer   uint16 `json:"peer"`
			Action string `json:"action"`
			Reason string `json:"reason,omitempty"`
			XID    uint64 `json:"xid,omitempty"`
			Parent uint64 `json:"parent,omitempty"`
		}{h, uint16(ev.Node), uint16(ev.Peer), ev.Action, ev.Reason, ev.XID, ev.Parent}
	case *OracleViolation:
		line = struct {
			refHeader
			Node uint16 `json:"node"`
			refFrameRef
			Reason string `json:"reason"`
			Detail string `json:"detail,omitempty"`
		}{h, uint16(ev.Node), refFlatten(ev.Frame), ev.Reason, ev.Detail}
	case *Fault:
		line = struct {
			refHeader
			Node   uint16 `json:"node"`
			Kind   string `json:"kind"`
			Action string `json:"action"`
			Detail string `json:"detail,omitempty"`
		}{h, uint16(ev.Node), ev.Kind, ev.Action, ev.Detail}
	case *Recovery:
		line = struct {
			refHeader
			Node   uint16 `json:"node"`
			Peer   uint16 `json:"peer,omitempty"`
			Action string `json:"action"`
			Detail string `json:"detail,omitempty"`
		}{h, uint16(ev.Node), uint16(ev.Peer), ev.Action, ev.Detail}
	case *PacketDrop:
		line = struct {
			refHeader
			Node   uint16 `json:"node"`
			Peer   uint16 `json:"peer"`
			Reason string `json:"reason"`
			Origin uint16 `json:"origin,omitempty"`
			Seq    uint32 `json:"seq"`
		}{h, uint16(ev.Node), uint16(ev.Peer), ev.Reason, uint16(ev.Origin), ev.Seq}
	case *Invariant:
		line = struct {
			refHeader
			Node   uint16 `json:"node"`
			Check  string `json:"check"`
			Detail string `json:"detail,omitempty"`
		}{h, uint16(ev.Node), ev.Check, ev.Detail}
	case *EngineSample:
		line = struct {
			refHeader
			QueueDepth       int     `json:"queue_depth"`
			EventsPerSec     float64 `json:"events_per_s"`
			VirtualWallRatio float64 `json:"virt_wall"`
		}{h, ev.QueueDepth, ev.EventsPerSec, ev.VirtualWallRatio}
	default:
		line = struct {
			refHeader
			Data Event `json:"data"`
		}{h, e}
	}
	return json.NewEncoder(w).Encode(line)
}

// nastyStrings exercises every branch of appendJSONString: quotes,
// backslashes, the two-byte escapes, generic control bytes, the
// html-escaped set, DEL (which encoding/json leaves alone), multibyte
// runes, U+2028/U+2029, and invalid UTF-8.
var nastyStrings = []string{
	"",
	"plain",
	`quote " backslash \ done`,
	"newline\ntab\tcarriage\rbell\x07null\x00",
	"html <tag> & entity",
	"del\x7fchar",
	"µ-law éclair 水下",
	"line sep par",
	"bad\xff\xfeutf8\xc3(",
	"edge\x1f\x20ctl",
}

// nastyFloats exercises appendJSONFloat's format boundaries: the
// 'f'/'e' switchover at 1e-6 and 1e21, exponent leading-zero
// stripping, negative zero, and shortest-round-trip subtleties.
var nastyFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.25, 1.5, 3.363156e6,
	1e-6, 9.999999e-7, 1e-7, -2.5e-8, 1e21, 9.99999e20, -3e22,
	1.7976931348623157e308, 5e-324, 0.1, 1.0 / 3.0, 123456.789,
}

func fidelityEvents() []Event {
	full := &packet.Frame{
		Kind: packet.KindData, Src: 3, Dst: 7, Seq: 41,
		Origin: 12, DataBits: 2048, XID: 7777,
	}
	bare := &packet.Frame{Kind: packet.KindHello, Src: 9, Dst: packet.Broadcast}
	evs := []Event{
		&FrameEmit{Src: 3, Dst: 7, Frame: full, Delay: 137 * time.Millisecond, LevelDB: 118.25},
		&FrameEmit{Src: 9, Dst: 1, Frame: bare, Delay: 0, LevelDB: -3.5},
		&TxBegin{Node: 3, Frame: full, Dur: 682 * time.Millisecond},
		&FrameRx{Node: 7, Frame: full},
		&FrameLoss{Node: 7, Frame: bare, Reason: "collision"},
		&MACState{Node: 2, From: "idle", To: "wait-cts", Slot: 19},
		&Contention{Node: 2, Peer: 5, Outcome: ContentionWon, Slot: 19, XID: 88},
		&Contention{Node: 2, Peer: 5, Outcome: ContentionTimeout, Slot: -1},
		&SlotPeriod{Node: 4, Peer: 6, Period: "III", Slot: 20},
		&Delivery{Node: 7, Origin: 12, Seq: 41, Bits: 2048, Latency: 9*time.Second + 31*time.Millisecond, Extra: true, XID: 7777},
		&Delivery{Node: 7, Origin: 0, Seq: 0, Bits: 0, Latency: 0},
		&Extra{Node: 1, Peer: 2, Action: ExtraDeny, Reason: "gap-too-small", XID: 5, Parent: 4},
		&Extra{Node: 1, Peer: 2, Action: ExtraRequest},
		&Fault{Node: 6, Kind: "sync-loss", Action: FaultInject, Detail: "accumulated err 1.5ms"},
		&Fault{Node: 6, Kind: "outage", Action: FaultClear},
		&Recovery{Node: 3, Peer: 8, Action: RecoverySuspect, Detail: "2 consecutive handshake failures"},
		&Recovery{Node: 3, Action: RecoveryWatchdog},
		&PacketDrop{Node: 5, Peer: 9, Reason: DropRetryExhausted, Origin: 5, Seq: 77},
		&PacketDrop{Node: 5, Peer: 9, Reason: DropDeadPeer},
		&OracleViolation{Node: 7, Frame: full, Reason: OracleCapture, Detail: "overlaps 9 Data seq=3 @1s"},
		&OracleViolation{Node: 7, Frame: bare, Reason: OracleHalfDuplex},
		&Invariant{Node: 1, Check: "impossible-rx", Detail: "measured delay -3ms outside [0, 2s]"},
		&Invariant{Node: 1, Check: "channel.broadcast.src"},
		&EngineSample{QueueDepth: 42, EventsPerSec: 180443.75, VirtualWallRatio: 1216.0625},
	}
	// Every nasty string, through each distinct string-field shape
	// (plain field, omitempty field, frame kind is always a safe name).
	for _, s := range nastyStrings {
		evs = append(evs,
			&FrameLoss{Node: 1, Frame: bare, Reason: s},
			&MACState{Node: 1, From: s, To: s, Slot: 0},
			&Extra{Node: 1, Peer: 2, Action: s, Reason: s, XID: 1},
			&Fault{Node: 1, Kind: s, Action: s, Detail: s},
			&OracleViolation{Node: 1, Frame: bare, Reason: s, Detail: s},
		)
	}
	// Every nasty float, through the header "at" (handled by the
	// caller), level_db, latency-like duration fields, and the
	// engine-sample rates.
	for _, f := range nastyFloats {
		evs = append(evs,
			&FrameEmit{Src: 1, Dst: 2, Frame: bare, Delay: time.Duration(f), LevelDB: f},
			&EngineSample{QueueDepth: 0, EventsPerSec: f, VirtualWallRatio: -f},
		)
	}
	return evs
}

func TestJSONLByteFidelity(t *testing.T) {
	ats := []sim.Time{
		0, sim.At(time.Nanosecond), sim.At(1500 * time.Millisecond),
		sim.At(3 * time.Hour), sim.At(time.Duration(1)),
	}
	for _, at := range ats {
		for _, e := range fidelityEvents() {
			var want bytes.Buffer
			if err := refEncode(&want, at, e); err != nil {
				t.Fatalf("reference encoder: %v", err)
			}
			var got bytes.Buffer
			j := NewJSONL(&got)
			j.Record(at, e)
			if err := j.Close(); err != nil {
				t.Fatalf("%T: %v", e, err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Errorf("%T at %v: encoder drift\n got: %q\nwant: %q",
					e, at, got.String(), want.String())
			}
		}
	}
}

// TestJSONLNonFinitePoisons pins the encoding/json error contract: a
// NaN/Inf float drops the line and sticks as an error, exactly as the
// reflection encoder's UnsupportedValueError did.
func TestJSONLNonFinitePoisons(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		var buf bytes.Buffer
		j := NewJSONL(&buf)
		j.Record(0, &EngineSample{EventsPerSec: bad})
		if err := j.Close(); err == nil {
			t.Errorf("EventsPerSec=%v: want error, got nil", bad)
		}
		if buf.Len() != 0 {
			t.Errorf("EventsPerSec=%v: poisoned line written: %q", bad, buf.String())
		}
	}
}

// TestJSONLUnknownEventEnvelope pins the default-case envelope for
// event types without a fast path.
type oddEvent struct{ N int }

func (oddEvent) Tag() string { return "test.odd" }

func TestJSONLUnknownEventEnvelope(t *testing.T) {
	var got bytes.Buffer
	j := NewJSONL(&got)
	j.Record(sim.At(time.Second), oddEvent{N: 3})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	want := `{"at":1,"event":"test.odd","data":{"N":3}}` + "\n"
	if got.String() != want {
		t.Errorf("envelope = %q, want %q", got.String(), want)
	}
}

// TestJSONLBatchBoundary drives enough lines through one exporter to
// cross the async writer's flush threshold several times, verifying
// the stream is the exact concatenation a synchronous writer would
// have produced.
func TestJSONLBatchBoundary(t *testing.T) {
	var got, want bytes.Buffer
	j := NewJSONL(&got)
	detail := strings.Repeat("x", 512)
	for i := 0; i < 4096; i++ {
		e := &Invariant{Node: packet.NodeID(i), Check: "soak", Detail: detail}
		j.Record(sim.At(time.Duration(i)*time.Millisecond), e)
		if err := refEncode(&want, sim.At(time.Duration(i)*time.Millisecond), e); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("async stream diverges from synchronous reference (len %d vs %d)",
			got.Len(), want.Len())
	}
}

// failingSink accepts the first limit bytes written to it and fails
// every write from then on, keeping only the bytes it accepted.
type failingSink struct {
	limit int
	got   bytes.Buffer
}

var errSinkFull = errors.New("sink full")

func (s *failingSink) Write(p []byte) (int, error) {
	room := s.limit - s.got.Len()
	if room >= len(p) {
		return s.got.Write(p)
	}
	if room > 0 {
		s.got.Write(p[:room])
	} else {
		room = 0
	}
	return room, errSinkFull
}

// TestJSONLWriteErrorSticks: once the sink fails, Err and Close both
// report its error, nothing more reaches it, and what it did accept is
// a prefix of the fault-free stream.
func TestJSONLWriteErrorSticks(t *testing.T) {
	const limit = 40000 // past the first staged write, inside the second
	detail := strings.Repeat("y", 300)
	record := func(j *JSONL, from, to int) {
		for i := from; i < to; i++ {
			j.Record(sim.At(time.Duration(i)*time.Millisecond),
				&Invariant{Node: packet.NodeID(i), Check: "sink", Detail: detail})
		}
	}
	var want bytes.Buffer
	ref := NewJSONL(&want)
	record(ref, 0, 1000)
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}

	sink := &failingSink{limit: limit}
	j := NewJSONL(sink)
	record(j, 0, 500)
	j.write()
	if err := j.Err(); !errors.Is(err, errSinkFull) {
		t.Fatalf("Err after a write = %v, want %v", err, errSinkFull)
	}
	atWrite := sink.got.Len()
	record(j, 500, 1000)
	if err := j.Close(); !errors.Is(err, errSinkFull) {
		t.Fatalf("Close = %v, want %v", err, errSinkFull)
	}
	if sink.got.Len() != atWrite || atWrite != limit {
		t.Errorf("sink holds %d bytes after the write and %d after Close, want %d both",
			atWrite, sink.got.Len(), limit)
	}
	if !bytes.HasPrefix(want.Bytes(), sink.got.Bytes()) {
		t.Error("bytes written before the error are not a prefix of the fault-free stream")
	}
}
