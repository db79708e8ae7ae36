package span

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"ewmac/internal/obs"
	"ewmac/internal/packet"
	"ewmac/internal/sim"
)

func at(d time.Duration) sim.Time { return sim.At(d) }

func frame(k packet.Kind, src, dst packet.NodeID, xid uint64) *packet.Frame {
	return &packet.Frame{Kind: k, Src: src, Dst: dst, XID: xid}
}

// decode parses every span line (skipping meta) from the assembler's
// output.
func decode(t *testing.T, buf *bytes.Buffer) []Span {
	t.Helper()
	var out []Span
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if line == "" {
			continue
		}
		var s Span
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatalf("bad span line %q: %v", line, err)
		}
		if s.Type == "meta" {
			continue
		}
		out = append(out, s)
	}
	return out
}

// TestHandshakeSpan walks a full RTS→CTS→Data→Ack exchange through the
// assembler and checks both the contention span and the handshake span
// come out complete with the right lineage.
func TestHandshakeSpan(t *testing.T) {
	var buf bytes.Buffer
	a := New(&buf)
	a.WriteMeta("EW-MAC", 1, 2)
	const x = uint64(1)<<32 | 1
	ms := time.Millisecond

	a.Record(at(0), &obs.Contention{Node: 1, Peer: 2, Outcome: obs.ContentionRTS, XID: x})
	a.Record(at(0), &obs.TxBegin{Node: 1, Frame: frame(packet.KindRTS, 1, 2, x), Dur: 5 * ms})
	a.Record(at(10*ms), &obs.FrameRx{Node: 2, Frame: frame(packet.KindRTS, 1, 2, x)})
	a.Record(at(11*ms), &obs.Contention{Node: 2, Peer: 1, Outcome: obs.ContentionGrant, XID: x})
	a.Record(at(12*ms), &obs.TxBegin{Node: 2, Frame: frame(packet.KindCTS, 2, 1, x), Dur: 5 * ms})
	a.Record(at(20*ms), &obs.FrameRx{Node: 1, Frame: frame(packet.KindCTS, 2, 1, x)})
	a.Record(at(20*ms), &obs.Contention{Node: 1, Peer: 2, Outcome: obs.ContentionWon, XID: x})
	a.Record(at(25*ms), &obs.TxBegin{Node: 1, Frame: frame(packet.KindData, 1, 2, x), Dur: 50 * ms})
	a.Record(at(80*ms), &obs.FrameRx{Node: 2, Frame: frame(packet.KindData, 1, 2, x)})
	a.Record(at(80*ms), &obs.Delivery{Node: 2, Origin: 1, Bits: 2048, Latency: 80 * ms, XID: x})
	a.Record(at(85*ms), &obs.TxBegin{Node: 2, Frame: frame(packet.KindAck, 2, 1, x), Dur: 5 * ms})
	a.Record(at(95*ms), &obs.FrameRx{Node: 1, Frame: frame(packet.KindAck, 2, 1, x)})
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	spans := decode(t, &buf)
	if len(spans) != 2 {
		t.Fatalf("want contention+handshake, got %d spans: %+v", len(spans), spans)
	}
	var hs, ct *Span
	for i := range spans {
		switch spans[i].Type {
		case "handshake":
			hs = &spans[i]
		case "contention":
			ct = &spans[i]
		}
	}
	if hs == nil || ct == nil {
		t.Fatalf("missing span types: %+v", spans)
	}
	if !hs.Complete || hs.Outcome != "acked" || hs.XID != x {
		t.Errorf("handshake = %+v, want complete acked xid=%x", hs, x)
	}
	if hs.Src != 1 || hs.Dst != 2 || hs.Bits != 2048 || hs.LatencyS != 0.08 {
		t.Errorf("handshake identity/payload wrong: %+v", hs)
	}
	// 4 tx + 4 rx + grant + delivered legs.
	if len(hs.Legs) != 10 {
		t.Errorf("handshake legs = %d, want 10: %+v", len(hs.Legs), hs.Legs)
	}
	if !ct.Complete || ct.Outcome != "won" {
		t.Errorf("contention = %+v, want complete won", ct)
	}

	st := a.stats
	if st.Deliveries != 1 || st.OrphanDeliveries != 0 {
		t.Errorf("stats = %+v, want 1 covered delivery", st)
	}
	if st.Handshakes != 1 || st.Contentions != 1 || st.Spans != 2 || st.Complete != 2 {
		t.Errorf("stats counts wrong: %+v", st)
	}
}

// TestContentionTimeoutClosesHandshake: a CTS timeout terminates both
// the contention round and the handshake lineage, incomplete.
func TestContentionTimeoutClosesHandshake(t *testing.T) {
	var buf bytes.Buffer
	a := New(&buf)
	const x = uint64(3)<<32 | 7
	ms := time.Millisecond

	a.Record(at(0), &obs.Contention{Node: 3, Peer: 4, Outcome: obs.ContentionRTS, XID: x})
	a.Record(at(0), &obs.TxBegin{Node: 3, Frame: frame(packet.KindRTS, 3, 4, x), Dur: 5 * ms})
	a.Record(at(time.Second), &obs.Contention{Node: 3, Peer: 4, Outcome: obs.ContentionTimeout, XID: x})
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	for _, s := range decode(t, &buf) {
		switch s.Type {
		case "handshake":
			if s.Complete || s.Outcome != "timeout" {
				t.Errorf("handshake = %+v, want incomplete timeout", s)
			}
		case "contention":
			if !s.Complete || s.Outcome != "timeout" {
				t.Errorf("contention = %+v, want complete timeout", s)
			}
		default:
			t.Errorf("unexpected span %+v", s)
		}
	}
}

// TestDeliveredSurvivesLateClose: once the payload delivered, neither a
// late lost-contention event nor the Close flush may demote the span.
func TestDeliveredSurvivesLateClose(t *testing.T) {
	var buf bytes.Buffer
	a := New(&buf)
	const x = uint64(5)<<32 | 2
	ms := time.Millisecond

	a.Record(at(0), &obs.TxBegin{Node: 5, Frame: frame(packet.KindData, 5, 6, x), Dur: 50 * ms})
	a.Record(at(60*ms), &obs.FrameRx{Node: 6, Frame: frame(packet.KindData, 5, 6, x)})
	a.Record(at(60*ms), &obs.Delivery{Node: 6, Origin: 5, Bits: 1024, Latency: 60 * ms, XID: x})
	// Ack never arrives; the run ends with the span still open.
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	spans := decode(t, &buf)
	if len(spans) != 1 {
		t.Fatalf("want 1 span, got %d", len(spans))
	}
	if !spans[0].Complete || spans[0].Outcome != "delivered" {
		t.Errorf("span = %+v, want complete delivered", spans[0])
	}
}

// TestExtraLifecycle: request→grant→complete yields a complete extra
// span carrying its parent lineage; an XID-0 pre-flight deny is not a
// span at all.
func TestExtraLifecycle(t *testing.T) {
	var buf bytes.Buffer
	a := New(&buf)
	const parent = uint64(1)<<32 | 1
	const x = uint64(9)<<32 | 1
	ms := time.Millisecond

	a.Record(at(0), &obs.Extra{Node: 9, Peer: 2, Action: obs.ExtraDeny, Reason: "gap-too-small", XID: 0, Parent: parent})
	a.Record(at(5*ms), &obs.Extra{Node: 9, Peer: 2, Action: obs.ExtraRequest, XID: x, Parent: parent})
	a.Record(at(6*ms), &obs.TxBegin{Node: 9, Frame: frame(packet.KindEXR, 9, 2, x), Dur: 5 * ms})
	a.Record(at(15*ms), &obs.FrameRx{Node: 2, Frame: frame(packet.KindEXR, 9, 2, x)})
	a.Record(at(16*ms), &obs.Extra{Node: 2, Peer: 9, Action: obs.ExtraGrant, XID: x, Parent: parent})
	a.Record(at(40*ms), &obs.Extra{Node: 9, Peer: 2, Action: obs.ExtraComplete, XID: x, Parent: parent})
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	spans := decode(t, &buf)
	if len(spans) != 1 {
		t.Fatalf("want 1 extra span (deny must not span), got %d: %+v", len(spans), spans)
	}
	s := spans[0]
	if s.Type != "extra" || !s.Complete || s.Outcome != "acked" {
		t.Errorf("extra = %+v, want complete acked", s)
	}
	if s.XID != x || s.Parent != parent {
		t.Errorf("lineage wrong: xid=%x parent=%x", s.XID, s.Parent)
	}
}

// TestExtraAbortIncomplete: an aborted extra closes incomplete with the
// reason in its outcome.
func TestExtraAbortIncomplete(t *testing.T) {
	var buf bytes.Buffer
	a := New(&buf)
	const x = uint64(4)<<32 | 3
	a.Record(at(0), &obs.Extra{Node: 4, Peer: 8, Action: obs.ExtraRequest, XID: x, Parent: 1})
	a.Record(at(time.Second), &obs.Extra{Node: 4, Peer: 8, Action: obs.ExtraAbort, Reason: "exc-timeout", XID: x, Parent: 1})
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	spans := decode(t, &buf)
	if len(spans) != 1 || spans[0].Complete || spans[0].Outcome != "abort:exc-timeout" {
		t.Fatalf("spans = %+v, want one incomplete abort:exc-timeout", spans)
	}
}

// TestOrphanDelivery: a delivery whose lineage was never seen counts as
// orphan instead of fabricating a span.
func TestOrphanDelivery(t *testing.T) {
	var buf bytes.Buffer
	a := New(&buf)
	a.Record(at(0), &obs.Delivery{Node: 1, Origin: 2, Bits: 512, XID: 12345})
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	st := a.stats
	if st.Deliveries != 1 || st.OrphanDeliveries != 1 {
		t.Errorf("stats = %+v, want one orphan delivery", st)
	}
	if spans := decode(t, &buf); len(spans) != 0 {
		t.Errorf("orphan delivery fabricated spans: %+v", spans)
	}
}

// TestFaultWindowSpan: inject→clear produces one complete fault span.
func TestFaultWindowSpan(t *testing.T) {
	var buf bytes.Buffer
	a := New(&buf)
	a.Record(at(time.Second), &obs.Fault{Node: 7, Kind: "mute", Action: obs.FaultInject})
	a.Record(at(3*time.Second), &obs.Fault{Node: 7, Kind: "mute", Action: obs.FaultClear})
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	spans := decode(t, &buf)
	if len(spans) != 1 {
		t.Fatalf("want 1 fault span, got %d", len(spans))
	}
	s := spans[0]
	if s.Type != "fault" || !s.Complete || s.Outcome != "cleared" || s.Kind != "mute" {
		t.Errorf("fault span = %+v", s)
	}
	if s.Start != 1 || s.End != 3 {
		t.Errorf("fault window [%g, %g], want [1, 3]", s.Start, s.End)
	}
}

// TestCloseFlushOrderDeterministic: spans left open flush sorted by
// start time regardless of map iteration order.
func TestCloseFlushOrderDeterministic(t *testing.T) {
	run := func() string {
		var buf bytes.Buffer
		a := New(&buf)
		ms := time.Millisecond
		for i := 20; i >= 1; i-- {
			x := uint64(i)<<32 | 1
			a.Record(at(time.Duration(i)*ms),
				&obs.TxBegin{Node: packet.NodeID(i), Frame: frame(packet.KindData, packet.NodeID(i), 0, x), Dur: ms})
		}
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	first := run()
	for i := 0; i < 5; i++ {
		if got := run(); got != first {
			t.Fatalf("Close flush order not deterministic:\n%s\nvs\n%s", first, got)
		}
	}
	var prev float64 = -1
	for _, s := range decodeStr(t, first) {
		if s.Outcome != "open" {
			t.Errorf("flushed open span has outcome %q", s.Outcome)
		}
		if s.Start < prev {
			t.Errorf("flush out of order: %g after %g", s.Start, prev)
		}
		prev = s.Start
	}
}

func decodeStr(t *testing.T, s string) []Span {
	var buf bytes.Buffer
	buf.WriteString(s)
	return decode(t, &buf)
}
