package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"ewmac/internal/packet"
	"ewmac/internal/sim"
)

func TestMultiDropsNils(t *testing.T) {
	if Multi() != nil {
		t.Fatal("Multi() should be nil")
	}
	if Multi(nil, nil) != nil {
		t.Fatal("Multi(nil, nil) should be nil")
	}
	var got int
	r := RecorderFunc(func(sim.Time, Event) { got++ })
	single := Multi(nil, r, nil)
	if single == nil {
		t.Fatal("Multi with one live recorder should not be nil")
	}
	single.Record(0, &Delivery{})
	if got != 1 {
		t.Fatalf("single recorder called %d times, want 1", got)
	}
	both := Multi(r, r)
	both.Record(0, &Delivery{})
	if got != 3 {
		t.Fatalf("fan-out recorder: %d calls total, want 3", got)
	}
}

func TestJSONLSchema(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	f := &packet.Frame{Kind: packet.KindRTS, Src: 3, Dst: 7, Seq: 9}
	j.Record(sim.At(1500*time.Millisecond), &FrameEmit{
		Src: 3, Dst: 7, Frame: f, Delay: 250 * time.Millisecond, LevelDB: 120,
	})
	j.Record(sim.At(2*time.Second), &Extra{Node: 5, Peer: 6, Action: ExtraDeny, Reason: "gap-too-small"})
	j.Record(sim.At(3*time.Second), &Delivery{Node: 1, Origin: 2, Seq: 4, Bits: 2048, Latency: time.Second})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3", len(lines))
	}
	// Every line must parse and carry the shared header fields.
	wantEvents := []string{"chan.emit", "mac.extra", "mac.deliver"}
	wantAt := []float64{1.5, 2, 3}
	for i, line := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("line %d not JSON: %v\n%s", i, err, line)
		}
		if m["event"] != wantEvents[i] {
			t.Errorf("line %d event = %v, want %s", i, m["event"], wantEvents[i])
		}
		if m["at"] != wantAt[i] {
			t.Errorf("line %d at = %v, want %v", i, m["at"], wantAt[i])
		}
	}
	// Spot-check flattened fields.
	var emit map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &emit); err != nil {
		t.Fatal(err)
	}
	if emit["kind"] != "RTS" || emit["delay"] != 0.25 || emit["level_db"] != float64(120) {
		t.Errorf("chan.emit fields wrong: %v", emit)
	}
	var deny map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &deny); err != nil {
		t.Fatal(err)
	}
	if deny["action"] != "deny" || deny["reason"] != "gap-too-small" {
		t.Errorf("mac.extra fields wrong: %v", deny)
	}
}

func TestCollectorReport(t *testing.T) {
	c := NewCollector()
	at := sim.At(time.Second)
	c.Record(at, &Contention{Outcome: ContentionWon})
	c.Record(at, &Contention{Outcome: ContentionWon})
	c.Record(at, &Contention{Outcome: ContentionWon})
	c.Record(at, &Contention{Outcome: ContentionTimeout})
	c.Record(at, &Extra{Action: ExtraRequest})
	c.Record(at, &Extra{Action: ExtraRequest})
	c.Record(at, &Extra{Action: ExtraComplete})
	c.Record(at, &Extra{Action: ExtraDeny, Reason: "neighbor-conflict"})
	c.Record(at, &FrameLoss{Reason: "collision"})
	c.Record(at, &Delivery{Bits: 2048})
	c.Record(at, &Delivery{Bits: 2048, Extra: true})

	r := c.Report(10)
	if r.DeliveredPackets != 2 || r.DeliveredBits != 4096 || r.ExtraDelivered != 1 {
		t.Fatalf("delivery counts wrong: %+v", r)
	}
	if r.Events["mac.deliver"] != 2 || r.Events["mac.contention"] != 4 {
		t.Errorf("event counts wrong: %v", r.Events)
	}
	if r.Losses["collision"] != 1 {
		t.Errorf("losses wrong: %v", r.Losses)
	}
	if r.DenyReasons["deny/neighbor-conflict"] != 1 {
		t.Errorf("deny reasons wrong: %v", r.DenyReasons)
	}
	if got, want := r.ExtraSuccessRate, 0.5; got != want {
		t.Errorf("ExtraSuccessRate = %v, want %v", got, want)
	}
	if got, want := r.ContentionWinRate, 0.75; got != want {
		t.Errorf("ContentionWinRate = %v, want %v", got, want)
	}
	if got, want := r.ThroughputKbps, 4096.0/10/1000; got != want {
		t.Errorf("ThroughputKbps = %v, want %v", got, want)
	}
}

func TestReportZeroDurationNoNaN(t *testing.T) {
	r := NewCollector().Report(0)
	if r.ThroughputKbps != 0 || r.DeliveriesPerSec != 0 ||
		r.ExtraSuccessRate != 0 || r.ContentionWinRate != 0 {
		t.Fatalf("empty report must be all zeros: %+v", r)
	}
}

func TestWritePromFormat(t *testing.T) {
	c := NewCollector()
	c.Record(0, &Delivery{Bits: 1024})
	c.Record(0, &FrameLoss{Reason: "collision"})
	r := c.Report(5)
	r.Protocol = "EW-MAC"

	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE uasn_events_total counter",
		`uasn_losses_total{protocol="EW-MAC",reason="collision"} 1`,
		`uasn_delivered_packets{protocol="EW-MAC"} 1`,
		"# TYPE uasn_throughput_kbps gauge",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom output missing %q\n%s", want, out)
		}
	}
}

func TestSamplerRowsAndEngineSamples(t *testing.T) {
	eng := sim.NewEngine(1)
	// Churn: an event every 100ms so the loop has something to count.
	var tick func()
	tick = func() {
		if eng.Now() < sim.At(10*time.Second) {
			eng.ScheduleIn(100*time.Millisecond, sim.PriorityMAC, tick)
		}
	}
	eng.ScheduleIn(0, sim.PriorityMAC, tick)

	var buf bytes.Buffer
	domain := 0.0
	s, err := NewSampler(eng, &buf, time.Second, Column{Name: "domain", Fn: func() float64 {
		domain++
		return domain
	}})
	if err != nil {
		t.Fatal(err)
	}
	var samples int
	s.SetRecorder(RecorderFunc(func(_ sim.Time, e Event) {
		if _, ok := e.(*EngineSample); ok {
			samples++
		}
	}))
	s.Start(sim.At(10 * time.Second))
	eng.RunUntil(sim.At(10 * time.Second))
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "t_s,queue_depth,events_per_s,virt_wall_ratio,domain" {
		t.Fatalf("header = %q", lines[0])
	}
	if len(lines) != 11 { // header + one row per second
		t.Fatalf("got %d lines, want 11", len(lines))
	}
	if samples != 10 {
		t.Fatalf("got %d EngineSample events, want 10", samples)
	}
	// The domain column must appear, sampled in order.
	if !strings.HasSuffix(lines[1], ",1") || !strings.HasSuffix(lines[10], ",10") {
		t.Errorf("domain column wrong: first=%q last=%q", lines[1], lines[10])
	}
}

func TestSamplerValidation(t *testing.T) {
	if _, err := NewSampler(nil, &bytes.Buffer{}, time.Second); err == nil {
		t.Error("nil engine should error")
	}
	if _, err := NewSampler(sim.NewEngine(1), nil, time.Second); err == nil {
		t.Error("nil writer should error")
	}
}
