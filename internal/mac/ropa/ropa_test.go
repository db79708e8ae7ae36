package ropa

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

// TestStaleDeadlineIsInert: an RTA attempt that ends early leaves its
// grant deadline armed. When it fires with a younger attempt in flight
// it must find its own attempt gone and leave the young one untouched.
func TestStaleDeadlineIsInert(t *testing.T) {
	var extras []obs.Extra
	r := newObservedRig(t, 1, obs.RecorderFunc(func(_ sim.Time, e obs.Event) {
		if x, ok := e.(*obs.Extra); ok {
			extras = append(extras, *x)
		}
	}),
		vec.V3{X: 0, Y: 0, Z: 100},     // 1 = r (receiver)
		vec.V3{X: 600, Y: 0, Z: 300},   // 2 = s (primary sender)
		vec.V3{X: 900, Y: 200, Z: 500}, // 3 = i (appender)
	)
	r.eng.RunUntil(sim.At(8 * time.Second)) // hello phase done: delays known
	s, i := r.macs[1], r.macs[2]
	s.Modem().SetDown(true) // s never grants: each attempt waits out its deadline
	slots := i.Slots()
	first := slots.SlotAt(r.eng.Now()) + 1
	tau12, _ := s.Table().Delay(1)
	rts := func(slot int64) *packet.Frame {
		return &packet.Frame{Kind: packet.KindRTS, Src: 2, Dst: 1, PairDelay: tau12, Timestamp: slots.StartOf(slot).Duration()}
	}

	// An attempt appended to an RTS of slot n waits until the start of
	// slot n+3; one slot later, the second attempt waits a slot longer.
	r.eng.RunUntil(slots.StartOf(first).Add(10 * time.Millisecond))
	i.Enqueue(mac.AppPacket{Dst: 2, Bits: 2048})
	i.OnOverheard(rts(first))
	a := i.pending
	if a == nil {
		t.Fatal("first RTA attempt not started")
	}
	r.eng.RunUntil(slots.StartOf(first + 1).Add(10 * time.Millisecond))
	i.abort(a) // the first attempt ends; its deadline stays armed
	i.OnOverheard(rts(first + 1))
	b := i.pending
	if b == nil || b == a {
		t.Fatal("second RTA attempt not started")
	}
	before := len(extras)

	mid := slots.StartOf(first + 3).Add(slots.Len() / 2)
	r.eng.RunUntil(mid)
	if i.pending != b || b.granted {
		t.Fatalf("at %v the second attempt is no longer waiting for its grant", mid)
	}
	for _, e := range extras[before:] {
		if e.Action == obs.ExtraDeny || e.Action == obs.ExtraAbort {
			t.Errorf("stale deadline recorded %s %q (xid %d)", e.Action, e.Reason, e.XID)
		}
	}

	// The second attempt's own deadline still ends it.
	r.eng.RunUntil(slots.StartOf(first + 4).Add(time.Millisecond))
	if i.pending != nil {
		t.Error("second attempt outlived its own deadline")
	}
}
