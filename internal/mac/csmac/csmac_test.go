package csmac

import (
	"testing"
	"time"

	"ewmac/internal/acoustic"
	"ewmac/internal/channel"
	"ewmac/internal/energy"
	"ewmac/internal/mac"
	"ewmac/internal/packet"
	"ewmac/internal/phy"
	"ewmac/internal/sim"
	"ewmac/internal/topology"
	"ewmac/internal/vec"
)

type rig struct {
	eng  *sim.Engine
	macs []*MAC
}

func newRig(t *testing.T, seed int64, positions ...vec.V3) *rig {
	t.Helper()
	eng := sim.NewEngine(seed)
	model := acoustic.DefaultModel()
	nodes := make([]*topology.Node, len(positions))
	for i, p := range positions {
		nodes[i] = &topology.Node{ID: packet.NodeID(i + 1), Pos: p}
	}
	region := vec.Box{Min: vec.V3{X: -1e4, Y: -1e4, Z: 0}, Max: vec.V3{X: 1e4, Y: 1e4, Z: 1e4}}
	net, err := topology.NewNetwork(region, model, nodes)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := channel.New(eng, net)
	if err != nil {
		t.Fatal(err)
	}
	slots := mac.SlotConfig{
		Omega:  packet.Duration(packet.ControlBits, model.BitRate()),
		TauMax: model.MaxDelay(),
	}
	r := &rig{eng: eng}
	for i := range positions {
		modem, err := phy.NewModem(phy.Config{
			ID:     packet.NodeID(i + 1),
			Engine: eng,
			Model:  model,
			Medium: ch,
			Energy: energy.DefaultProfile(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := ch.Register(modem); err != nil {
			t.Fatal(err)
		}
		m, err := New(mac.Config{
			ID:          packet.NodeID(i + 1),
			Engine:      eng,
			Modem:       modem,
			Slots:       slots,
			BitRate:     model.BitRate(),
			EnableHello: true,
			HelloWindow: 5 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		modem.SetListener(m)
		r.macs = append(r.macs, m)
		m.Start()
	}
	return r
}

func (r *rig) enqueueAt(at time.Duration, from int, dst packet.NodeID, bits int) {
	m := r.macs[from-1]
	r.eng.MustScheduleAt(sim.At(at), sim.PriorityApp, func() {
		m.Enqueue(mac.AppPacket{Dst: dst, Bits: bits})
	})
}

// TestChannelStealing: while s (2) and j (1) run a negotiated exchange
// across a long (large-τ) link, bystander i (3) with data for j
// overhears the CTS and steals j's CTS→Data waiting gap, delivering
// directly without negotiation; j acknowledges after its exchange.
func TestChannelStealing(t *testing.T) {
	r := newRig(t, 2,
		vec.V3{X: 0, Y: 0, Z: 100},     // 1 = j (receiver of the negotiated exchange)
		vec.V3{X: 1100, Y: 0, Z: 300},  // 2 = s (primary sender; far → big gap)
		vec.V3{X: 200, Y: 300, Z: 500}, // 3 = i (stealer with data for j)
	)
	// s's packet queued first; i's arrives mid-slot so i is idle when
	// the CTS is overheard.
	r.enqueueAt(9*time.Second, 2, 1, 2048)
	r.enqueueAt(9100*time.Millisecond, 3, 1, 2048)
	r.eng.RunUntil(sim.At(60 * time.Second))

	if got := r.macs[0].Counters().DeliveredPackets; got != 2 {
		t.Errorf("j delivered %d, want 2 (negotiated + stolen)", got)
	}
	i := r.macs[2].Counters()
	t.Logf("stealer: attempts=%d completions=%d", i.ExtraAttempts, i.ExtraCompletions)
	if i.ExtraAttempts == 0 {
		t.Fatal("no steal was attempted")
	}
	if i.ExtraCompletions == 0 {
		t.Fatal("steal attempted but never completed")
	}
	if r.macs[0].Counters().ExtraDeliveredPackets == 0 {
		t.Fatal("delivery did not go through the stolen path")
	}
}

// TestStealRefusedWhenGapTooSmall: the negotiated pair sit close
// together, so the CTS→Data gap is shorter than the data transmission
// time and the admission rule must refuse the steal.
func TestStealRefusedWhenGapTooSmall(t *testing.T) {
	r := newRig(t, 2,
		vec.V3{X: 0, Y: 0, Z: 100},     // 1 = j
		vec.V3{X: 150, Y: 0, Z: 300},   // 2 = s, 250 m from j: τ ≈ 0.17 s < TD
		vec.V3{X: 200, Y: 300, Z: 500}, // 3 = i with data for j
	)
	r.enqueueAt(9*time.Second, 2, 1, 2048)
	r.enqueueAt(9100*time.Millisecond, 3, 1, 2048)
	r.eng.RunUntil(sim.At(14 * time.Second))
	if got := r.macs[2].Counters().ExtraAttempts; got != 0 {
		t.Errorf("steal attempted %d times into a too-small gap, want 0", got)
	}
}
