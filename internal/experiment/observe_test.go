package experiment

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"ewmac/internal/obs"
	"ewmac/internal/sim"
)

// TestObserveEndToEnd runs the paper's Table 2 EW-MAC scenario with
// every observability consumer enabled and checks that the three
// outputs are consistent with each other and with the metric summary.
func TestObserveEndToEnd(t *testing.T) {
	cfg := Default(ProtocolEWMAC)
	if testing.Short() {
		cfg.SimTime = 60 * time.Second
	}
	var trace, ts bytes.Buffer
	var delivered uint64
	cfg.Observe = &Observe{
		Recorder: obs.RecorderFunc(func(_ sim.Time, e obs.Event) {
			if _, ok := e.(*obs.Delivery); ok {
				delivered++
			}
		}),
		Trace:      &trace,
		TimeSeries: &ts,
		Report:     true,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report
	if rep == nil {
		t.Fatal("Observe.Report enabled but Result.Report is nil")
	}

	// The report's delivery count must match the counter-based summary
	// exactly: both increment at the same instant in deliverData.
	if rep.DeliveredPackets != res.Summary.MAC.DeliveredPackets {
		t.Errorf("report delivered %d != summary delivered %d",
			rep.DeliveredPackets, res.Summary.MAC.DeliveredPackets)
	}
	if rep.DeliveredBits != res.Summary.MAC.DeliveredBits {
		t.Errorf("report bits %d != summary bits %d",
			rep.DeliveredBits, res.Summary.MAC.DeliveredBits)
	}
	if delivered != rep.DeliveredPackets {
		t.Errorf("custom recorder saw %d deliveries, report %d", delivered, rep.DeliveredPackets)
	}
	if rep.Protocol != "EW-MAC" || rep.Nodes != cfg.Nodes || rep.Seed != cfg.Seed {
		t.Errorf("report identity wrong: %+v", rep)
	}
	if rep.EngineEvents == 0 || rep.EngineEventsPerS <= 0 || rep.VirtualWallRatio <= 0 {
		t.Errorf("engine stats missing: events=%d eps=%v ratio=%v",
			rep.EngineEvents, rep.EngineEventsPerS, rep.VirtualWallRatio)
	}

	// Every trace line must parse and carry the shared schema header.
	lines := strings.Split(strings.TrimSpace(trace.String()), "\n")
	if len(lines) < 100 {
		t.Fatalf("trace suspiciously short: %d lines", len(lines))
	}
	var traceDeliveries uint64
	for i, line := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("trace line %d not JSON: %v", i, err)
		}
		ev, ok := m["event"].(string)
		if !ok || ev == "" {
			t.Fatalf("trace line %d missing event tag: %s", i, line)
		}
		if _, ok := m["at"].(float64); !ok {
			t.Fatalf("trace line %d missing at: %s", i, line)
		}
		if ev == "mac.deliver" {
			traceDeliveries++
		}
	}
	if traceDeliveries != rep.DeliveredPackets {
		t.Errorf("trace has %d mac.deliver lines, report %d", traceDeliveries, rep.DeliveredPackets)
	}

	// The time series must have a header plus ~one row per simulated
	// second, each with the full column set.
	rows := strings.Split(strings.TrimSpace(ts.String()), "\n")
	wantCols := len(strings.Split(rows[0], ","))
	if !strings.HasPrefix(rows[0], "t_s,queue_depth,events_per_s,virt_wall_ratio") {
		t.Errorf("csv header = %q", rows[0])
	}
	wantRows := int(cfg.SimTime/time.Second) - 1
	if len(rows)-1 < wantRows {
		t.Errorf("csv has %d data rows, want >= %d", len(rows)-1, wantRows)
	}
	for i, r := range rows[1:] {
		if got := len(strings.Split(r, ",")); got != wantCols {
			t.Fatalf("csv row %d has %d cells, want %d", i+1, got, wantCols)
		}
	}
}

// TestObserveDisabledNoReport checks the zero-config path stays inert.
func TestObserveDisabledNoReport(t *testing.T) {
	cfg := Default(ProtocolEWMAC)
	cfg.SimTime = 20 * time.Second
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report != nil {
		t.Fatal("Report should be nil with observability disabled")
	}
}
