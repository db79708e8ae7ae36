package channel

import (
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

// A source keeps its geometry once a second build comes under the same
// topology, so the second static broadcast promotes and the third hits.
// Moving a node must invalidate the kept geometry: the next broadcast
// has to see the new positions' delay, not the pre-move one.
func TestGeometryCacheInvalidatedByStep(t *testing.T) {
	eng, ch, modems, _ := lineNetwork(t, 0, 750)
	net := chNetwork(ch)
	// Give node 2 a drift so Step actually moves it.
	net.Node(2).Mobility = topology.MobilityHorizontal
	net.Node(2).Vel = vec.V3{X: 100}

	var traced []time.Duration
	onEmit(ch, func(e obs.FrameEmit) { traced = append(traced, e.Delay) })

	f := &packet.Frame{Kind: packet.KindRTS, Src: 1, Dst: 2}
	if err := modems[0].Transmit(f); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if len(traced) != 1 {
		t.Fatalf("traced %d deliveries, want 1", len(traced))
	}
	before := traced[0]

	// The first build is not kept. The second under the same geometry
	// is, and the third is served from it; all with an identical delay.
	sg := &ch.geo[0]
	if sg.list != nil {
		t.Fatal("first build was kept before any reuse")
	}
	for i, wantHits := range []uint64{0, 1} {
		if err := modems[0].Transmit(f); err != nil {
			t.Fatal(err)
		}
		eng.Run()
		if got := traced[1+i]; got != before {
			t.Fatalf("static rebroadcast %d delay %v != %v", i+1, got, before)
		}
		if !sg.kept || len(sg.list) != 1 {
			t.Fatalf("static rebroadcast %d: kept=%v list=%d entries, want the one receiver kept", i+1, sg.kept, len(sg.list))
		}
		if ch.cacheHits != wantHits {
			t.Fatalf("static rebroadcast %d: %d cache hits, want %d", i+1, ch.cacheHits, wantHits)
		}
	}

	epoch := net.Epoch()
	net.Step(2 * time.Second) // node 2 drifts 200 m further out
	if net.Epoch() == epoch {
		t.Fatal("Step moved a node without bumping the epoch")
	}
	if err := modems[0].Transmit(f); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	want := net.Model.Delay(net.Node(1).Pos, net.Node(2).Pos)
	if got := traced[3]; got != want {
		t.Fatalf("post-move delay = %v, want fresh %v (stale cached %v)", got, want, before)
	}
	if got := traced[3]; got == before {
		t.Fatal("post-move broadcast served the stale cached delay")
	}
	if sg.kept || ch.cacheHits != 1 {
		t.Fatalf("post-move broadcast: kept=%v, %d cache hits; want a fresh unkept build", sg.kept, ch.cacheHits)
	}
}

// A static topology must never bump the epoch, so the cache survives
// mobility steps that move nothing.
func TestStaticStepKeepsCache(t *testing.T) {
	_, ch, _, _ := lineNetwork(t, 0, 750)
	net := chNetwork(ch)
	epoch := net.Epoch()
	net.Step(time.Second)
	if net.Epoch() != epoch {
		t.Fatal("static Step bumped the geometry epoch")
	}
}

// Direct position mutation (the fault injector's delay-shift path) plus
// Invalidate must refresh cached geometry exactly like Step does.
func TestGeometryCacheInvalidatedByDirectMove(t *testing.T) {
	eng, ch, modems, _ := lineNetwork(t, 0, 750)
	net := chNetwork(ch)
	var traced []time.Duration
	onEmit(ch, func(e obs.FrameEmit) { traced = append(traced, e.Delay) })
	f := &packet.Frame{Kind: packet.KindRTS, Src: 1, Dst: 2}
	if err := modems[0].Transmit(f); err != nil {
		t.Fatal(err)
	}
	eng.Run()

	net.Node(2).Pos.X = 1200
	net.Invalidate()
	if err := modems[0].Transmit(f); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	want := net.Model.Delay(net.Node(1).Pos, net.Node(2).Pos)
	if traced[1] != want || traced[1] == traced[0] {
		t.Fatalf("post-jump delay = %v, want %v (pre-jump %v)", traced[1], want, traced[0])
	}
}

// Registering a modem after broadcasts started must invalidate the
// cached receiver lists so the newcomer is not silently skipped.
func TestRegisterInvalidatesCache(t *testing.T) {
	eng, ch, modems, _ := lineNetwork(t, 0, 750)
	net := chNetwork(ch)
	f := &packet.Frame{Kind: packet.KindRTS, Src: 1, Dst: 2}
	if err := modems[0].Transmit(f); err != nil {
		t.Fatal(err)
	}
	eng.Run()

	// Grow the topology is not supported; instead simulate late modem
	// registration by building a fresh network with three nodes but
	// registering the third modem only after a broadcast.
	_ = net
	eng2 := sim.NewEngine(1)
	model := acoustic.DefaultModel()
	nodes := []*topology.Node{
		{ID: 1, Pos: vec.V3{X: 0, Z: 100}},
		{ID: 2, Pos: vec.V3{X: 750, Z: 100}},
		{ID: 3, Pos: vec.V3{X: 400, Z: 100}},
	}
	region := vec.Box{Min: vec.V3{X: -1e5, Y: -1e5, Z: 0}, Max: vec.V3{X: 1e5, Y: 1e5, Z: 1e4}}
	net2, err := topology.NewNetwork(region, model, nodes)
	if err != nil {
		t.Fatal(err)
	}
	ch2, err := New(eng2, net2)
	if err != nil {
		t.Fatal(err)
	}
	mods := make([]*phy.Modem, 3)
	recs := make([]*recorder, 3)
	for i := 0; i < 3; i++ {
		recs[i] = &recorder{}
		m, err := phy.NewModem(phy.Config{
			ID: packet.NodeID(i + 1), Engine: eng2, Model: model,
			Medium: ch2, Listener: recs[i], Energy: energy.DefaultProfile(),
		})
		if err != nil {
			t.Fatal(err)
		}
		mods[i] = m
		if i < 2 {
			if err := ch2.Register(m); err != nil {
				t.Fatal(err)
			}
		}
	}
	g := &packet.Frame{Kind: packet.KindRTS, Src: 1, Dst: 2}
	if err := mods[0].Transmit(g); err != nil {
		t.Fatal(err)
	}
	eng2.Run()
	if len(recs[2].received) != 0 {
		t.Fatal("unregistered modem received a frame")
	}
	if err := ch2.Register(mods[2]); err != nil {
		t.Fatal(err)
	}
	if err := mods[0].Transmit(g); err != nil {
		t.Fatal(err)
	}
	eng2.Run()
	if len(recs[2].received) != 1 {
		t.Fatalf("late-registered modem received %d frames, want 1", len(recs[2].received))
	}
}

// chNetwork digs the topology out of the channel for test mutation.
func chNetwork(c *Channel) *topology.Network { return c.net }

// BenchmarkChannelBroadcast measures one broadcast fanning out to a
// static 40-node deployment plus draining the scheduled arrivals — the
// geometry-cache hot path.
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
