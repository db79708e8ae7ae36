package slotprof

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"ewmac/internal/obs"
	"ewmac/internal/packet"
	"ewmac/internal/sim"
)

func at(d time.Duration) sim.Time { return sim.At(d) }

// parse splits the profiler's JSONL output into its three record kinds.
func parse(t *testing.T, buf *bytes.Buffer) (slots []SlotRecord, nodes []NodeRecord, sum *Summary) {
	t.Helper()
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if line == "" {
			continue
		}
		var disc struct {
			Rec string `json:"rec"`
		}
		if err := json.Unmarshal([]byte(line), &disc); err != nil {
			t.Fatalf("bad line %q: %v", line, err)
		}
		switch disc.Rec {
		case "slot":
			var r SlotRecord
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				t.Fatal(err)
			}
			slots = append(slots, r)
		case "node":
			var r NodeRecord
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				t.Fatal(err)
			}
			nodes = append(nodes, r)
		case "summary":
			var r Summary
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				t.Fatal(err)
			}
			sum = &r
		default:
			t.Fatalf("unknown record %q", disc.Rec)
		}
	}
	return
}

const eps = 1e-9

func near(a, b float64) bool { return math.Abs(a-b) < eps }

// TestClassificationPartitionsSlot: one node with one primary tx inside
// a busy window; every class is exact and the slot sums to its length.
func TestClassificationPartitionsSlot(t *testing.T) {
	var buf bytes.Buffer
	p := New(Config{
		Protocol: "T", SlotLen: time.Second, BitRate: 1000,
		Start: 0, End: at(2 * time.Second), Writer: &buf,
	})
	ms := time.Millisecond
	// Busy (non-idle MAC role) from 100ms to 900ms; primary tx 200-400ms.
	p.Record(at(100*ms), &obs.MACState{Node: 1, From: "idle", To: "wait-cts"})
	p.Record(at(200*ms), &obs.TxBegin{Node: 1, Frame: &packet.Frame{Kind: packet.KindData}, Dur: 200 * ms})
	p.Record(at(900*ms), &obs.MACState{Node: 1, From: "wait-cts", To: "idle"})

	sum, err := p.Finish(at(2 * time.Second))
	if err != nil {
		t.Fatal(err)
	}
	slots, nodes, fileSum := parse(t, &buf)
	if fileSum == nil || *fileSum != sum {
		t.Fatalf("file summary %+v != returned %+v", fileSum, sum)
	}
	if sum.Slots != 2 || sum.Nodes != 1 {
		t.Fatalf("summary window wrong: %+v", sum)
	}
	// Only slot 0 has activity; slot 1 is implied all-guard.
	if len(slots) != 1 || slots[0].Slot != 0 {
		t.Fatalf("slot lines = %+v, want just slot 0", slots)
	}
	s := slots[0]
	if !near(s.Tx, 0.2) || !near(s.Rx, 0) || !near(s.Wait, 0.6) || !near(s.Reclaimed, 0) || !near(s.Guard, 0.2) {
		t.Errorf("slot classes = %+v, want tx=0.2 wait=0.6 guard=0.2", s)
	}
	if got := s.Tx + s.Rx + s.Wait + s.Reclaimed + s.Guard; !near(got, 1.0) {
		t.Errorf("slot classes sum to %g, want 1.0", got)
	}
	// Node totals cover both slots (the idle one contributes guard).
	if len(nodes) != 1 {
		t.Fatalf("node lines = %+v", nodes)
	}
	n := nodes[0]
	if got := n.Tx + n.Rx + n.Wait + n.Reclaimed + n.Guard; !near(got, 2.0) {
		t.Errorf("node classes sum to %g, want 2.0 (2 slots)", got)
	}
}

// TestExtraPromotesToReclaimed: extra-kind tx and rx time classifies as
// reclaimed, and the exploitation ratio reflects reclaimed vs wait.
func TestExtraPromotesToReclaimed(t *testing.T) {
	var buf bytes.Buffer
	p := New(Config{
		Protocol: "T", SlotLen: time.Second, BitRate: 1000,
		Start: 0, End: at(time.Second), Writer: &buf,
	})
	ms := time.Millisecond
	// Busy all slot; EXData tx 100-300ms; the rest of the busy time waits.
	p.Record(at(0), &obs.MACState{Node: 2, From: "idle", To: "extra"})
	p.Record(at(100*ms), &obs.TxBegin{Node: 2, Frame: &packet.Frame{Kind: packet.KindEXData}, Dur: 200 * ms})
	// Extra reception: frame of 100 bits at 1000 b/s = 100ms, ending 500ms.
	exd := &packet.Frame{Kind: packet.KindEXAck, DataBits: 0}
	p.Record(at(500*ms), &obs.FrameRx{Node: 2, Frame: exd})
	rxDur := exd.TxDuration(1000).Seconds()

	sum, err := p.Finish(at(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	slots, _, _ := parse(t, &buf)
	if len(slots) != 1 {
		t.Fatalf("want 1 slot line, got %+v", slots)
	}
	s := slots[0]
	wantReclaimed := 0.2 + rxDur
	if !near(s.Reclaimed, wantReclaimed) {
		t.Errorf("reclaimed = %g, want %g (extra tx + extra rx)", s.Reclaimed, wantReclaimed)
	}
	if !near(s.Wait, 1.0-wantReclaimed) {
		t.Errorf("wait = %g, want %g", s.Wait, 1.0-wantReclaimed)
	}
	if got := s.Tx + s.Rx + s.Wait + s.Reclaimed + s.Guard; !near(got, 1.0) {
		t.Errorf("classes sum to %g, want 1.0", got)
	}
	wantExploit := wantReclaimed / (wantReclaimed + s.Wait)
	if !near(sum.Exploit, wantExploit) {
		t.Errorf("exploit = %g, want %g", sum.Exploit, wantExploit)
	}
}

// TestPriorityTxOverRx: overlapping primary tx and rx classifies as tx
// (priority order), never double-counted.
func TestPriorityTxOverRx(t *testing.T) {
	var buf bytes.Buffer
	p := New(Config{
		Protocol: "T", SlotLen: time.Second, BitRate: 1e6,
		Start: 0, End: at(time.Second), Writer: &buf,
	})
	ms := time.Millisecond
	p.Record(at(100*ms), &obs.TxBegin{Node: 3, Frame: &packet.Frame{Kind: packet.KindData}, Dur: 400 * ms})
	// A loss event lands mid-transmission (overlap 100-500 vs rx ending
	// at 450ms with negligible duration at 1e6 b/s: 64 control bits =
	// 64µs, inside the tx interval).
	p.Record(at(450*ms), &obs.FrameLoss{Node: 3, Frame: &packet.Frame{Kind: packet.KindRTS}})

	_, err := p.Finish(at(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	slots, _, _ := parse(t, &buf)
	s := slots[0]
	if !near(s.Tx, 0.4) || !near(s.Rx, 0) {
		t.Errorf("overlap misclassified: tx=%g rx=%g, want tx=0.4 rx=0", s.Tx, s.Rx)
	}
	if got := s.Tx + s.Rx + s.Wait + s.Reclaimed + s.Guard; !near(got, 1.0) {
		t.Errorf("classes sum to %g, want 1.0", got)
	}
}

// TestWindowClipping: intervals straddling the window and an engaged
// node at the end are clipped, and partial trailing slots are dropped.
func TestWindowClipping(t *testing.T) {
	var buf bytes.Buffer
	p := New(Config{
		Protocol: "T", SlotLen: time.Second, BitRate: 1000,
		Start: at(time.Second), End: at(10 * time.Second), Writer: &buf,
	})
	ms := time.Millisecond
	// Tx starts before the window and a busy period never closes.
	p.Record(at(500*ms), &obs.TxBegin{Node: 1, Frame: &packet.Frame{Kind: packet.KindData}, Dur: time.Second})
	p.Record(at(2*time.Second), &obs.MACState{Node: 1, From: "idle", To: "wait-data"})

	// Finish early, mid-slot: window [1s, 3.5s) keeps slots 1 and 2 only.
	sum, err := p.Finish(at(3500 * ms))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Slots != 2 {
		t.Fatalf("slots = %d, want 2 (clipped to whole slots)", sum.Slots)
	}
	slots, _, _ := parse(t, &buf)
	var total float64
	for _, s := range slots {
		total = s.Tx + s.Rx + s.Wait + s.Reclaimed + s.Guard
		if !near(total, 1.0) {
			t.Errorf("slot %d sums to %g, want 1.0", s.Slot, total)
		}
	}
	// Slot 1 (1s-2s): tx clipped to [1, 1.5) = 0.5s.
	if slots[0].Slot != 1 || !near(slots[0].Tx, 0.5) {
		t.Errorf("clipped tx wrong: %+v", slots[0])
	}
	// Slot 2 (2s-3s): busy clipped to window end → all wait.
	if slots[1].Slot != 2 || !near(slots[1].Wait, 1.0) {
		t.Errorf("open busy interval not clipped to window: %+v", slots[1])
	}
}

// TestEmptyWindow: a degenerate window yields a zero summary, no
// records, and no error.
func TestEmptyWindow(t *testing.T) {
	var buf bytes.Buffer
	p := New(Config{Protocol: "T", SlotLen: time.Second, BitRate: 1000,
		Start: at(5 * time.Second), End: at(5 * time.Second), Writer: &buf})
	sum, err := p.Finish(at(5 * time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Slots != 0 || buf.Len() != 0 {
		t.Errorf("empty window wrote output: %+v %q", sum, buf.String())
	}
}

// TestLinesMatchEncodingJSON pins the hand-written record lines to
// encoding/json byte for byte: each line, decoded into its record type
// and marshalled again, must come back unchanged. The stream mixes
// nodes, overlapping primary and extra frames, busy periods and a slot
// length that is no round number of seconds, and the protocol label
// needs escaping.
func TestLinesMatchEncodingJSON(t *testing.T) {
	var buf bytes.Buffer
	slot := 1234567891 * time.Nanosecond
	p := New(Config{
		Protocol: "<EW&MAC> \"x\"", SlotLen: slot, BitRate: 1234.5,
		Start: at(3 * slot / 2), End: at(40 * slot), Writer: &buf,
	})
	r := rand.New(rand.NewSource(7))
	kinds := []packet.Kind{packet.KindRTS, packet.KindCTS, packet.KindData, packet.KindAck, packet.KindEXData, packet.KindEXAck}
	var now time.Duration
	for i := 0; i < 600; i++ {
		now += time.Duration(r.Int63n(int64(slot / 4)))
		node := packet.NodeID(1 + r.Intn(7))
		f := &packet.Frame{Kind: kinds[r.Intn(len(kinds))], DataBits: r.Intn(3000)}
		switch r.Intn(4) {
		case 0:
			p.Record(at(now), &obs.TxBegin{Node: node, Frame: f, Dur: time.Duration(r.Int63n(int64(slot)))})
		case 1:
			p.Record(at(now), &obs.FrameRx{Node: node, Frame: f})
		case 2:
			p.Record(at(now), &obs.FrameLoss{Node: node, Frame: f})
		default:
			to := "idle"
			if r.Intn(2) == 0 {
				to = "wait-data"
			}
			p.Record(at(now), &obs.MACState{Node: node, From: "x", To: to})
		}
	}
	if _, err := p.Finish(at(now)); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(buf.String(), "\n")
	lines = lines[:len(lines)-1]
	if len(lines) < 50 {
		t.Fatalf("fixture wrote only %d lines", len(lines))
	}
	for _, line := range lines {
		var disc struct {
			Rec string `json:"rec"`
		}
		if err := json.Unmarshal([]byte(line), &disc); err != nil {
			t.Fatalf("bad line %q: %v", line, err)
		}
		var v any
		switch disc.Rec {
		case "slot":
			v = &SlotRecord{}
		case "node":
			v = &NodeRecord{}
		case "summary":
			v = &Summary{}
		default:
			t.Fatalf("unknown record %q", disc.Rec)
		}
		if err := json.Unmarshal([]byte(line), v); err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(v); err != nil {
			t.Fatal(err)
		}
		if want.String() != line {
			t.Errorf("line drifts from encoding/json\n got: %q\nwant: %q", line, want.String())
		}
	}
}
