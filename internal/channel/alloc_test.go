package channel

import (
	"testing"
	"time"

	"ewmac/internal/acoustic"
	"ewmac/internal/energy"
	"ewmac/internal/packet"
	"ewmac/internal/phy"
	"ewmac/internal/sim"
	"ewmac/internal/topology"
	"ewmac/internal/vec"
)

// TestBroadcastAllocsPerBroadcast pins the fan-out to zero allocations
// per broadcast with every scheduled arrival drained: receivers share
// the transmitted frame, each broadcast's wave and lanes are recycled
// with their handlers bound, and PHY arrivals are recycled records with
// pre-bound handlers. It covers direct rays and surface echoes, and
// half the sensors drifting between broadcasts.
func TestBroadcastAllocsPerBroadcast(t *testing.T) {
	for _, tc := range []struct {
		name    string
		surface bool
		drift   bool
	}{
		{"direct", false, false},
		{"surface", true, false},
		{"direct/drifting", false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine(1)
			model := acoustic.DefaultModel()
			model.SurfaceReflection = tc.surface
			cfg := topology.DeployConfig{Nodes: 196, Sinks: 4, Region: vec.Cube(3000)}
			if tc.drift {
				cfg.Mobile, cfg.CurrentMS = 0.5, 1.5
			}
			net, err := topology.Deploy(cfg, model, eng.RNG("deploy"))
			if err != nil {
				t.Fatal(err)
			}
			ch, err := New(eng, net)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range net.Nodes() {
				m, err := phy.NewModem(phy.Config{
					ID: n.ID, Engine: eng, Model: model, Medium: ch, Energy: energy.DefaultProfile(),
				})
				if err != nil {
					t.Fatal(err)
				}
				if err := ch.Register(m); err != nil {
					t.Fatal(err)
				}
			}
			nodes := net.Nodes()
			frames := make([]*packet.Frame, len(nodes))
			for i, n := range nodes {
				frames[i] = &packet.Frame{Kind: packet.KindRTS, Src: n.ID, Dst: nodes[(i+1)%len(nodes)].ID}
			}
			dur := packet.Duration(packet.ControlBits, model.BitRate())
			// One round broadcasts once from every node, so every modem's
			// arrival pool is exercised.
			round := func() {
				for _, f := range frames {
					if tc.drift {
						net.Step(time.Second)
					}
					if err := ch.Broadcast(f.Src, f, dur); err != nil {
						t.Fatal(err)
					}
					eng.Run()
				}
			}
			round()
			before := ch.deliveries
			const runs = 5
			avg := testing.AllocsPerRun(runs, round)
			// AllocsPerRun calls round once more to warm up.
			fanout := float64(ch.deliveries-before) / float64((runs+1)*len(frames))
			if fanout < 10 {
				t.Fatalf("fan-out %.1f receivers per broadcast: too sparse to pin", fanout)
			}
			per := avg / float64(len(frames))
			t.Logf("%.2f allocs per broadcast at fan-out %.1f", per, fanout)
			if per > 0 {
				t.Errorf("%.2f allocs per broadcast, want 0", per)
			}
		})
	}
}
