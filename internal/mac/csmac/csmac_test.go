package csmac

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
	macs []*MAC
}

func newRig(t *testing.T, seed int64, positions ...vec.V3) *rig {
	t.Helper()
	return newObservedRig(t, seed, nil, positions...)
}

// newObservedRig is newRig with every node recording to rec.
func newObservedRig(t *testing.T, seed int64, rec obs.Recorder, positions ...vec.V3) *rig {
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
			Recorder:    rec,
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

// TestStaleDeadlineIsInert: a steal that completes early leaves its
// ack deadline armed. When it fires with a younger steal in flight it
// must find its own steal gone: no abort, no retransmission counted,
// the young steal untouched.
func TestStaleDeadlineIsInert(t *testing.T) {
	var extras []obs.Extra
	r := newObservedRig(t, 2, obs.RecorderFunc(func(_ sim.Time, e obs.Event) {
		if x, ok := e.(*obs.Extra); ok {
			extras = append(extras, *x)
		}
	}),
		vec.V3{X: 0, Y: 0, Z: 100},     // 1 = j (receiver of the negotiated exchange)
		vec.V3{X: 1100, Y: 0, Z: 300},  // 2 = s (primary sender; far → big gap)
		vec.V3{X: 200, Y: 300, Z: 500}, // 3 = i (stealer with data for j)
	)
	r.eng.RunUntil(sim.At(8 * time.Second)) // hello phase done: delays known
	j, i := r.macs[0], r.macs[2]
	j.Modem().SetDown(true) // j never acknowledges: each steal waits out its deadline
	slots := i.Slots()
	first := slots.SlotAt(r.eng.Now()) + 1
	tauPair, _ := j.Table().Delay(2)
	cts := func(slot int64) *packet.Frame {
		return &packet.Frame{Kind: packet.KindCTS, Src: 1, Dst: 2, PairDelay: tauPair, DataBits: 2048, Timestamp: slots.StartOf(slot).Duration()}
	}

	// A steal under a CTS of slot n waits for j's ack until past the
	// start of the slot after the negotiated ack slot; one slot later,
	// the second steal waits a slot longer.
	r.eng.RunUntil(slots.StartOf(first).Add(10 * time.Millisecond))
	i.Enqueue(mac.AppPacket{Dst: 1, Bits: 1024})
	i.Enqueue(mac.AppPacket{Dst: 1, Bits: 1024})
	i.OnOverheard(cts(first))
	a := i.steal
	if a == nil {
		t.Fatal("first steal not started")
	}
	r.eng.RunUntil(slots.StartOf(first + 1).Add(10 * time.Millisecond))
	// j's ack completes the first steal; its deadline stays armed.
	i.OnExtraFrame(&packet.Frame{Kind: packet.KindEXAck, Src: 1, Dst: 3, Seq: a.pkt.Seq})
	i.OnOverheard(cts(first + 1))
	b := i.steal
	if b == nil || b == a {
		t.Fatal("second steal not started")
	}
	before, retx := len(extras), i.Counters().Retransmissions

	// The first steal's negotiated data goes in slot first+1.
	firstAck := slots.AckSlot(first+1, i.DataTx(2048), tauPair)
	mid := slots.StartOf(firstAck + 2).Add(mac.Guard)
	r.eng.RunUntil(mid)
	if i.steal != b {
		t.Fatalf("at %v the second steal is no longer waiting for its ack", mid)
	}
	if got := i.Counters().Retransmissions; got != retx {
		t.Errorf("stale deadline counted %d retransmission(s)", got-retx)
	}
	for _, e := range extras[before:] {
		if e.Action == obs.ExtraDeny || e.Action == obs.ExtraAbort {
			t.Errorf("stale deadline recorded %s %q (xid %d)", e.Action, e.Reason, e.XID)
		}
	}

	// The second steal's own deadline still ends it.
	r.eng.RunUntil(slots.StartOf(firstAck + 3))
	if i.steal != nil {
		t.Error("second steal outlived its own deadline")
	}
}
