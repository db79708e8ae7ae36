package sfama

import (
	"testing"
	"time"

	"ewmac/internal/acoustic"
	"ewmac/internal/channel"
	"ewmac/internal/energy"
	"ewmac/internal/mac"
	"ewmac/internal/obs"
	"ewmac/internal/packet"
	"ewmac/internal/phy"
	"ewmac/internal/sim"
	"ewmac/internal/topology"
	"ewmac/internal/vec"
)

type rig struct {
	eng  *sim.Engine
	ch   *channel.Channel
	macs []*MAC
}

// onEmit hands every delivery the channel schedules to fn, as a copy:
// the pooled record is reclaimed when Record returns.
func onEmit(ch *channel.Channel, fn func(e obs.FrameEmit)) {
	ch.SetRecorder(obs.RecorderFunc(func(_ sim.Time, e obs.Event) {
		if fe, ok := e.(*obs.FrameEmit); ok {
			fn(*fe)
		}
	}))
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
	r := &rig{eng: eng, ch: ch}
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
	r.eng.ScheduleAt(sim.At(at), sim.PriorityApp, func() {
		m.Enqueue(mac.AppPacket{Dst: dst, Bits: bits})
	})
}

func TestBasicHandshakeDelivers(t *testing.T) {
	r := newRig(t, 1,
		vec.V3{Z: 100},
		vec.V3{X: 800, Z: 300},
	)
	r.enqueueAt(9*time.Second, 2, 1, 2048)
	r.eng.RunUntil(sim.At(30 * time.Second))

	rx := r.macs[0].Counters()
	tx := r.macs[1].Counters()
	if rx.DeliveredPackets != 1 || rx.DeliveredBits != 2048 {
		t.Fatalf("receiver counters %+v", rx)
	}
	if tx.AckedPackets != 1 {
		t.Fatalf("sender not acknowledged: %+v", tx)
	}
	if tx.RTSSent != 1 || rx.CTSSent != 1 {
		t.Errorf("handshake used %d RTS / %d CTS, want 1/1", tx.RTSSent, rx.CTSSent)
	}
	if r.macs[1].QueueLen() != 0 {
		t.Error("packet still queued after ack")
	}
	if rx.LatencySum <= 0 {
		t.Error("no latency recorded")
	}
}

func TestHandshakeSlotAlignment(t *testing.T) {
	// Every primary frame must leave at a slot boundary.
	r := newRig(t, 1,
		vec.V3{Z: 100},
		vec.V3{X: 800, Z: 300},
	)
	slots := r.macs[0].Slots()
	bad := 0
	onEmit(r.ch, func(e obs.FrameEmit) {
		f := e.Frame
		switch f.Kind {
		case packet.KindRTS, packet.KindCTS, packet.KindData, packet.KindAck:
			at := sim.At(f.Timestamp)
			if slots.StartOf(slots.SlotAt(at)) != at {
				bad++
				t.Errorf("%v sent off-slot at %v", f, f.Timestamp)
			}
		}
	})
	r.enqueueAt(9*time.Second, 2, 1, 2048)
	r.eng.RunUntil(sim.At(30 * time.Second))
	if bad == 0 {
		t.Log("all primary frames slot-aligned")
	}
}

func TestEquation5MultiSlotData(t *testing.T) {
	// A 4096-bit payload at a ~1.45 km distance: TD + τ exceeds one
	// slot, so per Equation (5) the Ack comes two slots after the
	// data, not one.
	r := newRig(t, 1,
		vec.V3{Z: 100},
		vec.V3{X: 1430, Z: 300},
	)
	slots := r.macs[0].Slots()
	var dataSlot, ackSlot int64 = -1, -1
	onEmit(r.ch, func(e obs.FrameEmit) {
		f := e.Frame
		switch f.Kind {
		case packet.KindData:
			dataSlot = slots.SlotAt(sim.At(f.Timestamp))
		case packet.KindAck:
			ackSlot = slots.SlotAt(sim.At(f.Timestamp))
		}
	})
	r.enqueueAt(9*time.Second, 2, 1, 4096)
	r.eng.RunUntil(sim.At(40 * time.Second))
	if dataSlot < 0 || ackSlot < 0 {
		t.Fatal("handshake did not complete")
	}
	if got := ackSlot - dataSlot; got != 2 {
		t.Errorf("Ack %d slots after Data, want 2 (Equation (5))", got)
	}
	if r.macs[1].Counters().AckedPackets != 1 {
		t.Error("multi-slot exchange not acknowledged")
	}
}

func TestOverhearerDefersDuringExchange(t *testing.T) {
	// Node 3 overhears the 2→1 negotiation and must not transmit its
	// RTS until the exchange (through the Ack slot) is over.
	r := newRig(t, 1,
		vec.V3{Z: 100},
		vec.V3{X: 800, Z: 300},
		vec.V3{X: 400, Y: 500, Z: 400},
	)
	slots := r.macs[0].Slots()
	var ctsSlot, thirdRTSSlot int64 = -1, -1
	var exchange *mac.Exchange
	onEmit(r.ch, func(e obs.FrameEmit) {
		src, f := e.Src, e.Frame
		if f.Kind == packet.KindCTS && src == 1 && f.Dst == 2 && exchange == nil {
			ctsSlot = slots.SlotAt(sim.At(f.Timestamp))
			exchange = &mac.Exchange{
				Sender: 2, Receiver: 1, RTSSlot: ctsSlot - 1,
				PairDelay: f.PairDelay,
				DataTx:    packet.Duration(packet.DataHeaderBits+f.DataBits, 12000),
				Confirmed: true,
			}
		}
		if f.Kind == packet.KindRTS && src == 3 && thirdRTSSlot < 0 {
			thirdRTSSlot = slots.SlotAt(sim.At(f.Timestamp))
		}
	})
	r.enqueueAt(9*time.Second, 2, 1, 2048)
	// Node 3 wants to talk mid-exchange.
	r.enqueueAt(10500*time.Millisecond, 3, 1, 2048)
	r.eng.RunUntil(sim.At(60 * time.Second))
	if ctsSlot < 0 || thirdRTSSlot < 0 {
		t.Fatal("expected both the exchange and the deferred RTS")
	}
	if exchange != nil {
		end := exchange.EndSlot(slots)
		if thirdRTSSlot < end {
			t.Errorf("overhearer transmitted in slot %d, inside the exchange (ends %d)", thirdRTSSlot, end)
		}
	}
	// Both packets are eventually delivered.
	if got := r.macs[0].Counters().DeliveredPackets; got != 2 {
		t.Errorf("delivered %d, want 2", got)
	}
}

func TestContentionFailureBacksOffAndRetries(t *testing.T) {
	// Two senders RTS the same receiver in the same slot; S-FAMA's
	// receiver defers on the overheard RTS, so both fail and retry
	// later. Eventually both deliver.
	r := newRig(t, 3,
		vec.V3{Z: 100},
		vec.V3{X: 800, Z: 300},
		vec.V3{X: 0, Y: 800, Z: 400},
	)
	r.enqueueAt(9*time.Second, 2, 1, 2048)
	r.enqueueAt(9*time.Second, 3, 1, 2048)
	r.eng.RunUntil(sim.At(240 * time.Second))
	got := r.macs[0].Counters().DeliveredPackets
	if got != 2 {
		t.Fatalf("delivered %d, want 2 after retries", got)
	}
	fails := r.macs[1].Counters().ContentionFailures + r.macs[2].Counters().ContentionFailures
	if fails == 0 {
		t.Error("no contention failures recorded in a colliding scenario")
	}
}

func TestSinkNeverContends(t *testing.T) {
	eng := sim.NewEngine(1)
	model := acoustic.DefaultModel()
	nodes := []*topology.Node{
		{ID: 1, Pos: vec.V3{Z: 0}, Sink: true},
		{ID: 2, Pos: vec.V3{X: 500, Z: 200}},
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
	slots := mac.SlotConfig{Omega: packet.Duration(packet.ControlBits, model.BitRate()), TauMax: model.MaxDelay()}
	var macs []*MAC
	for i, n := range nodes {
		modem, err := phy.NewModem(phy.Config{ID: n.ID, Engine: eng, Model: model, Medium: ch, Energy: energy.DefaultProfile()})
		if err != nil {
			t.Fatal(err)
		}
		if err := ch.Register(modem); err != nil {
			t.Fatal(err)
		}
		m, err := New(mac.Config{
			ID: n.ID, Engine: eng, Modem: modem, Slots: slots,
			BitRate: model.BitRate(), IsSink: i == 0,
		})
		if err != nil {
			t.Fatal(err)
		}
		modem.SetListener(m)
		macs = append(macs, m)
		m.Start()
	}
	// Even with a queued packet, the sink must not send RTS.
	macs[0].Enqueue(mac.AppPacket{Dst: 2, Bits: 1024})
	macs[1].Enqueue(mac.AppPacket{Dst: 1, Bits: 1024})
	eng.RunUntil(sim.At(30 * time.Second))
	if macs[0].Counters().RTSSent != 0 {
		t.Error("sink transmitted an RTS")
	}
	if macs[0].Counters().DeliveredPackets != 1 {
		t.Error("sink failed to receive")
	}
}

func TestPickWinnerFirstArrival(t *testing.T) {
	r := newRig(t, 1, vec.V3{Z: 100})
	m := r.macs[0]
	a := &packet.Frame{Kind: packet.KindRTS, Src: 2, Dst: 1, RP: 0.1}
	b := &packet.Frame{Kind: packet.KindRTS, Src: 3, Dst: 1, RP: 0.9}
	if w := m.PickWinner([]*packet.Frame{a, b}); w != a {
		t.Error("S-FAMA should answer the first RTS, not the highest priority")
	}
	if m.PickWinner(nil) != nil {
		t.Error("empty candidates should yield nil")
	}
}

func TestNoPiggyback(t *testing.T) {
	r := newRig(t, 1, vec.V3{Z: 100})
	f := r.macs[0].NewFrame(packet.KindCTS, 2)
	f.PairDelay = time.Second
	r.macs[0].Piggyback(f)
	if len(f.Neighbors) != 0 {
		t.Error("S-FAMA control frames must carry no neighbor state")
	}
	if f.Bits() != packet.ControlBits {
		t.Errorf("control frame is %d bits, want %d", f.Bits(), packet.ControlBits)
	}
}
