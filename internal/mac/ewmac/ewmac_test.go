package ewmac

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

// rig is a hand-placed micro-network of EW-MAC nodes.
type rig struct {
	eng  *sim.Engine
	net  *topology.Network
	ch   *channel.Channel
	macs []*MAC
}

// newRig places nodes at the given positions (IDs 1..n) and wires
// EW-MAC instances with Hello enabled in the first 5 s.
func newRig(t *testing.T, seed int64, opts Options, positions ...vec.V3) *rig {
	t.Helper()
	return newObservedRig(t, seed, opts, nil, positions...)
}

// newObservedRig is newRig with every node recording to rec.
func newObservedRig(t *testing.T, seed int64, opts Options, rec obs.Recorder, positions ...vec.V3) *rig {
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
	r := &rig{eng: eng, net: net, ch: ch}
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
		}, opts)
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

// figure4Positions: j shallow, i and k deeper, all mutually in range
// with distinct pairwise delays.
func figure4Positions() []vec.V3 {
	return []vec.V3{
		{X: 0, Y: 0, Z: 100},   // 1 = j (the contended receiver)
		{X: 500, Y: 0, Z: 300}, // 2 = i
		{X: 0, Y: 600, Z: 400}, // 3 = k
	}
}

// TestFigure4ExtraCommunication reproduces the paper's Figure 4/5
// sequence: i and k contend for j in the same slot; the loser requests
// an extra communication and completes it inside the winner's exchange
// waiting time, so both payloads are delivered.
func TestFigure4ExtraCommunication(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		r := newRig(t, seed, Options{}, figure4Positions()...)
		// Enqueue on both contenders shortly before the same slot
		// boundary, after the Hello phase.
		r.enqueueAt(9*time.Second, 2, 1, 2048)
		r.enqueueAt(9*time.Second, 3, 1, 2048)
		r.eng.RunUntil(sim.At(60 * time.Second))

		j := r.macs[0]
		got := j.Counters().DeliveredPackets
		if got != 2 {
			t.Fatalf("seed %d: j delivered %d packets, want 2", seed, got)
		}
		totalExtraAttempts := uint64(0)
		totalExtraOK := uint64(0)
		for _, m := range r.macs {
			totalExtraAttempts += m.Counters().ExtraAttempts
			totalExtraOK += m.Counters().ExtraCompletions
		}
		if totalExtraAttempts == 0 {
			t.Fatalf("seed %d: no extra communication was attempted", seed)
		}
		if totalExtraOK == 0 {
			t.Fatalf("seed %d: extra communication attempted (%d) but never completed", seed, totalExtraAttempts)
		}
		if j.Counters().ExtraDeliveredPackets == 0 {
			t.Fatalf("seed %d: no payload delivered via the extra path", seed)
		}
	}
}

// TestCaseBSenderBusy reproduces §4.2's second case: i targets j, but j
// itself is a sender toward k. i must still get its packet to j via the
// extra path (or a later primary round) without corrupting j's
// exchange.
func TestCaseBSenderBusy(t *testing.T) {
	r := newRig(t, 3, Options{}, figure4Positions()...)
	// j (node 1) targets k (node 3); i (node 2) targets j.
	r.enqueueAt(9*time.Second, 1, 3, 2048)
	r.enqueueAt(9*time.Second, 2, 1, 2048)
	r.eng.RunUntil(sim.At(90 * time.Second))

	if got := r.macs[2].Counters().DeliveredPackets; got != 1 {
		t.Fatalf("k delivered %d packets, want 1 (j's primary exchange)", got)
	}
	if got := r.macs[0].Counters().DeliveredPackets; got != 1 {
		t.Fatalf("j delivered %d packets, want 1 (i's packet)", got)
	}
}

// TestExtraNeverCorruptsNegotiated is the core safety property from
// §4.2: an admitted extra transmission must not interfere with any
// negotiated exchange. With four nodes (two negotiated pairs plus a
// loser), the winner pair's data must always arrive intact.
func TestExtraNeverCorruptsNegotiated(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		r := newRig(t, seed, Options{},
			vec.V3{X: 0, Y: 0, Z: 100},     // 1 = contended receiver j
			vec.V3{X: 500, Y: 0, Z: 300},   // 2 = i
			vec.V3{X: 0, Y: 600, Z: 400},   // 3 = k
			vec.V3{X: 700, Y: 700, Z: 500}, // 4 = bystander with traffic to j
		)
		r.enqueueAt(9*time.Second, 2, 1, 2048)
		r.enqueueAt(9*time.Second, 3, 1, 2048)
		r.enqueueAt(9*time.Second+500*time.Millisecond, 4, 1, 2048)
		r.eng.RunUntil(sim.At(120 * time.Second))
		if got := r.macs[0].Counters().DeliveredPackets; got != 3 {
			t.Errorf("seed %d: j delivered %d packets, want all 3", seed, got)
		}
	}
}

func TestPickWinnerByPriority(t *testing.T) {
	r := newRig(t, 1, Options{}, figure4Positions()...)
	m := r.macs[0]
	lo := &packet.Frame{Kind: packet.KindRTS, Src: 2, Dst: 1, RP: 0.2}
	hi := &packet.Frame{Kind: packet.KindRTS, Src: 3, Dst: 1, RP: 0.9}
	if w := m.PickWinner([]*packet.Frame{lo, hi}); w != hi {
		t.Error("PickWinner ignored priority")
	}
	if w := m.PickWinner(nil); w != nil {
		t.Error("PickWinner on empty should be nil")
	}
	uni, err := New(mac.Config{
		ID:      99,
		Engine:  r.eng,
		Modem:   r.macs[0].Modem(),
		Slots:   r.macs[0].Slots(),
		BitRate: 12000,
	}, Options{UniformPriority: true})
	if err != nil {
		t.Fatal(err)
	}
	if w := uni.PickWinner([]*packet.Frame{lo, hi}); w != lo {
		t.Error("UniformPriority should pick first arrival")
	}
}

func TestPiggybackSingleEntry(t *testing.T) {
	r := newRig(t, 1, Options{}, figure4Positions()...)
	m := r.macs[0]
	f := m.NewFrame(packet.KindCTS, 2)
	f.PairDelay = 400 * time.Millisecond
	m.Piggyback(f)
	if len(f.Neighbors) != 1 || f.Neighbors[0].ID != 2 {
		t.Fatalf("Piggyback = %v, want single pair entry", f.Neighbors)
	}
	b := m.NewFrame(packet.KindHello, packet.Broadcast)
	m.Piggyback(b)
	if len(b.Neighbors) != 0 {
		t.Error("broadcast frames should not carry pair info")
	}
}

// TestClearAtNeighborsGuard exercises the §4.2 admission check in
// isolation: a planned transmission whose arrival at a negotiated
// party would land inside that party's receive window must be refused.
func TestClearAtNeighborsGuard(t *testing.T) {
	r := newRig(t, 1, Options{}, figure4Positions()...)
	m := r.macs[1]                          // node 2 = i
	r.eng.RunUntil(sim.At(8 * time.Second)) // hello phase done: delays known

	// Fabricate a confirmed exchange 3→1 in the near future.
	slots := m.Slots()
	now := r.eng.Now()
	curSlot := slots.SlotAt(now)
	tau31, ok := m.Table().Delay(3)
	if !ok {
		t.Fatal("hello phase did not populate the delay table")
	}
	cts := &packet.Frame{Kind: packet.KindCTS, Src: 1, Dst: 3, PairDelay: tau31, DataBits: 2048}
	m.Ledger().ObserveCTS(cts, curSlot+1, m.DataTx(2048))

	// Node 1 (the exchange receiver) will be receiving data during
	// [StartOf(curSlot+2)+τ31, +dataTx). A transmission by node 2
	// timed to arrive at node 1 inside that window must be refused.
	tau21, _ := m.Table().Delay(1)
	dataWindowStart := slots.StartOf(curSlot + 2).Add(tau31)
	sendT := dataWindowStart.Add(50 * time.Millisecond).Add(-tau21)
	if m.clearAtNeighbors(sendT, 20*time.Millisecond, 3) {
		t.Error("guard admitted a transmission into a negotiated receive window")
	}
	// The same transmission shifted well before the window is fine.
	early := dataWindowStart.Add(-500 * time.Millisecond).Add(-tau21)
	if !m.clearAtNeighbors(early, 20*time.Millisecond, 3) {
		t.Error("guard refused a clearly safe transmission")
	}
	// With the ablation knob the unsafe transmission is admitted.
	un, err := New(mac.Config{
		ID: 9, Engine: r.eng, Modem: m.Modem(), Slots: m.Slots(), BitRate: 12000,
	}, Options{DisableNeighborGuard: true})
	if err != nil {
		t.Fatal(err)
	}
	if !un.clearAtNeighbors(sendT, 20*time.Millisecond, 3) {
		t.Error("ablation knob did not disable the guard")
	}
}

// TestGuardRefusesUnknownDelays: if any negotiated party's delay is
// unknown, the paper requires certainty, so the transmission must be
// refused.
func TestGuardRefusesUnknownDelays(t *testing.T) {
	r := newRig(t, 1, Options{}, figure4Positions()...)
	m := r.macs[1]
	// No hello phase has run at t=0: table empty; ledger names node 3.
	cts := &packet.Frame{Kind: packet.KindCTS, Src: 1, Dst: 3, PairDelay: 400 * time.Millisecond, DataBits: 2048}
	m.Ledger().ObserveCTS(cts, 2, m.DataTx(2048))
	if m.clearAtNeighbors(sim.At(time.Second), 20*time.Millisecond, 99) {
		t.Error("guard admitted a transmission with unknown neighbor delays")
	}
}

// TestStaleDeadlineIsInert: an attempt that ends early leaves its EXC
// deadline armed. When it fires with a younger attempt in flight it
// must find its own attempt gone and do nothing: no deny, no abort,
// the young attempt untouched.
func TestStaleDeadlineIsInert(t *testing.T) {
	var log []obs.Extra
	r := newObservedRig(t, 1, Options{}, obs.RecorderFunc(func(_ sim.Time, e obs.Event) {
		if x, ok := e.(*obs.Extra); ok {
			log = append(log, *x)
		}
	}), figure4Positions()...)
	r.eng.RunUntil(sim.At(8 * time.Second)) // hello phase done: delays known
	i, j := r.macs[1], r.macs[0]
	j.Modem().SetDown(true) // j never answers: each attempt waits out its deadline
	slots := i.Slots()
	slot := slots.SlotAt(r.eng.Now()) + 1
	t0 := slots.StartOf(slot).Add(10 * time.Millisecond)
	r.eng.RunUntil(t0)

	// j is the receiver of a negotiated exchange whose CTS i overheard.
	tau, _ := i.Table().Delay(1)
	cause := &packet.Frame{Kind: packet.KindCTS, Src: 1, Dst: 3, PairDelay: tau, Timestamp: slots.StartOf(slot).Duration()}
	i.Enqueue(mac.AppPacket{Dst: 1, Bits: 2048})
	i.OnContentionLost(cause)
	a := i.extra
	if a == nil {
		t.Fatal("first extra attempt not started")
	}
	i.OnRestart() // a crash ends the first attempt; its deadline stays armed

	// The second attempt starts gap later, so its deadline is gap after
	// the first one's.
	const gap = 300 * time.Millisecond
	r.eng.RunUntil(t0.Add(gap))
	i.OnContentionLost(cause)
	b := i.extra
	if b == nil || b == a {
		t.Fatal("second extra attempt not started")
	}
	before := len(log)

	// Halfway between the deadlines: the first has fired, the second
	// not. An attempt's deadline is its EXR send (now + Guard) plus
	// 2τ + EXR + ControlTx + 4·Guard; the EXR is within gap/2 of a
	// control frame.
	mid := t0.Add(gap/2 + 5*mac.Guard + 2*tau + 2*i.ControlTx())
	r.eng.RunUntil(mid)
	if i.extra != b || b.phase != phaseRequested {
		t.Fatalf("at %v the second attempt is no longer waiting for its EXC", mid)
	}
	for _, e := range log[before:] {
		if e.Action == obs.ExtraDeny || e.Action == obs.ExtraAbort {
			t.Errorf("stale deadline recorded %s %q (xid %d)", e.Action, e.Reason, e.XID)
		}
	}

	// The second attempt's own deadline still ends it.
	r.eng.RunUntil(mid.Add(gap))
	if i.extra != nil {
		t.Error("second attempt outlived its own deadline")
	}
	if n := len(log); n == before || log[n-1].Reason != "exc-timeout" || log[n-1].XID != b.xid {
		t.Errorf("second attempt's deadline recorded %+v, want its exc-timeout deny", log[before:])
	}
}
