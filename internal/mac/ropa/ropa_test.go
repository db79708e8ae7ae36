package ropa

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

// TestAppendedTransmission: s sends to r; i, idle with data for s,
// overhears s's RTS, appends via RTA, and delivers its packet to s in
// s's post-exchange window.
func TestAppendedTransmission(t *testing.T) {
	r := newRig(t, 2,
		vec.V3{X: 0, Y: 0, Z: 100},     // 1 = r (receiver)
		vec.V3{X: 600, Y: 0, Z: 300},   // 2 = s (primary sender)
		vec.V3{X: 900, Y: 200, Z: 500}, // 3 = i (appender)
	)
	// s's packet first; i's packet arrives mid-slot — after s's RTS
	// left but before it reaches i — so i stays idle this round and
	// reacts to the overheard RTS with an RTA.
	r.enqueueAt(9*time.Second, 2, 1, 2048)
	r.enqueueAt(9100*time.Millisecond, 3, 2, 2048)
	r.eng.RunUntil(sim.At(90 * time.Second))

	if got := r.macs[0].Counters().DeliveredPackets; got != 1 {
		t.Errorf("r delivered %d, want 1", got)
	}
	if got := r.macs[1].Counters().DeliveredPackets; got != 1 {
		t.Errorf("s delivered %d, want 1 (appended packet)", got)
	}
	att := r.macs[2].Counters().ExtraAttempts
	ok := r.macs[2].Counters().ExtraCompletions
	t.Logf("appender: attempts=%d grants=%d completions=%d",
		att, r.macs[2].Counters().ExtraGrants, ok)
	if att == 0 {
		t.Fatal("no RTA was ever attempted")
	}
	if ok == 0 {
		t.Fatal("appending attempted but never completed")
	}
}
