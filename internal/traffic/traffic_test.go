package traffic

import (
	"math"
	"testing"
	"time"

	"ewmac/internal/mac"
	"ewmac/internal/packet"
	"ewmac/internal/sim"
)

type collector struct {
	pkts []mac.AppPacket
}

func (c *collector) Enqueue(p mac.AppPacket) { c.pkts = append(c.pkts, p) }

func okRoute(packet.NodeID) (packet.NodeID, bool) { return 9, true }

func TestPerNodeRate(t *testing.T) {
	// 0.8 kbps network-wide, 2048-bit packets, 60 nodes:
	// 800/2048/60 packets per second per node.
	got := PerNodeRate(0.8, 2048, 60)
	want := 800.0 / 2048 / 60
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("PerNodeRate = %v, want %v", got, want)
	}
	if PerNodeRate(0, 2048, 60) != 0 || PerNodeRate(1, 0, 60) != 0 || PerNodeRate(1, 2048, 0) != 0 {
		t.Error("degenerate rates should be 0")
	}
}

func TestGeneratorPoissonVolume(t *testing.T) {
	eng := sim.NewEngine(7)
	c := &collector{}
	// Rate 1 pkt/s over 200 s → ~200 packets; Poisson 3σ ≈ 42.
	g, err := NewGenerator(Config{
		Node:    3,
		Engine:  eng,
		Sink:    c,
		Route:   okRoute,
		RatePPS: 1,
		Bits:    2048,
		Start:   sim.At(10 * time.Second),
		Stop:    sim.At(210 * time.Second),
	})
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	eng.Run()
	n := len(c.pkts)
	if n < 150 || n > 250 {
		t.Fatalf("generated %d packets for E=200", n)
	}
	if g.generated != uint64(n) {
		t.Errorf("Generated() = %d, want %d", g.generated, n)
	}
	seen := map[uint32]bool{}
	for _, p := range c.pkts {
		if p.Origin != 3 || p.Dst != 9 || p.Bits != 2048 {
			t.Fatalf("bad packet %+v", p)
		}
		if p.GeneratedAt < 10*time.Second || p.GeneratedAt > 210*time.Second {
			t.Fatalf("packet outside window: %v", p.GeneratedAt)
		}
		if seen[p.Seq] {
			t.Fatalf("duplicate seq %d", p.Seq)
		}
		seen[p.Seq] = true
	}
}

func TestGeneratorRespectsWindow(t *testing.T) {
	eng := sim.NewEngine(1)
	c := &collector{}
	g, err := NewGenerator(Config{
		Node: 1, Engine: eng, Sink: c, Route: okRoute,
		RatePPS: 100, Bits: 1024,
		Start: sim.At(5 * time.Second), Stop: sim.At(6 * time.Second),
	})
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	eng.Run()
	for _, p := range c.pkts {
		if p.GeneratedAt < 5*time.Second || p.GeneratedAt > 6*time.Second {
			t.Fatalf("arrival at %v outside [5s, 6s]", p.GeneratedAt)
		}
	}
	if len(c.pkts) == 0 {
		t.Fatal("no packets in a 100 pps window")
	}
}

func TestGeneratorZeroRateSilent(t *testing.T) {
	eng := sim.NewEngine(1)
	c := &collector{}
	g, err := NewGenerator(Config{
		Node: 1, Engine: eng, Sink: c, Route: okRoute,
		RatePPS: 0, Bits: 1024,
		Start: sim.Epoch, Stop: sim.At(time.Hour),
	})
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	eng.Run()
	if len(c.pkts) != 0 {
		t.Error("zero-rate generator produced packets")
	}
}

func TestGeneratorUnroutedCounted(t *testing.T) {
	eng := sim.NewEngine(1)
	c := &collector{}
	noRoute := func(packet.NodeID) (packet.NodeID, bool) { return packet.Nobody, false }
	g, err := NewGenerator(Config{
		Node: 1, Engine: eng, Sink: c, Route: noRoute,
		RatePPS: 10, Bits: 1024,
		Start: sim.Epoch, Stop: sim.At(10 * time.Second),
	})
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	eng.Run()
	if len(c.pkts) != 0 {
		t.Error("unroutable packets enqueued")
	}
	if g.Unrouted() == 0 {
		t.Error("unrouted drops not counted")
	}
}

func TestGeneratorValidation(t *testing.T) {
	eng := sim.NewEngine(1)
	base := Config{
		Node: 1, Engine: eng, Sink: &collector{}, Route: okRoute,
		RatePPS: 1, Bits: 1024, Start: sim.Epoch, Stop: sim.At(time.Second),
	}
	cases := []struct {
		name string
		edit func(*Config)
	}{
		{"no node", func(c *Config) { c.Node = packet.Nobody }},
		{"nil engine", func(c *Config) { c.Engine = nil }},
		{"nil sink", func(c *Config) { c.Sink = nil }},
		{"nil route", func(c *Config) { c.Route = nil }},
		{"zero bits", func(c *Config) { c.Bits = 0 }},
		{"negative rate", func(c *Config) { c.RatePPS = -1 }},
		{"empty window", func(c *Config) { c.Stop = c.Start }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.edit(&cfg)
			if _, err := NewGenerator(cfg); err == nil {
				t.Error("NewGenerator accepted invalid config")
			}
		})
	}
}

func TestGeneratorDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) []time.Duration {
		eng := sim.NewEngine(seed)
		c := &collector{}
		g, err := NewGenerator(Config{
			Node: 1, Engine: eng, Sink: c, Route: okRoute,
			RatePPS: 2, Bits: 1024, Start: sim.Epoch, Stop: sim.At(50 * time.Second),
		})
		if err != nil {
			t.Fatal(err)
		}
		g.Start()
		eng.Run()
		var out []time.Duration
		for _, p := range c.pkts {
			out = append(out, p.GeneratedAt)
		}
		return out
	}
	a, b := run(5), run(5)
	if len(a) != len(b) {
		t.Fatal("same-seed runs differ in volume")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same-seed runs differ in arrival times")
		}
	}
	if c := run(6); len(c) == len(a) && len(a) > 0 && c[0] == a[0] {
		t.Error("different seeds look identical")
	}
}
