package experiment

import (
	"slices"
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

// TestTwoHopMaintenance pins ROPA's and CS-MAC's two-hop neighbour
// state on the air, checked against each node's own delay table at the
// instant every frame goes out:
//   - successive NbrUpdate broadcasts rotate through the whole table in
//     maintenance-sized windows, and carry no extra piggyback;
//   - every other control frame carries the first piggyback-sized
//     slice of the table;
//   - MaintenanceBits counts every Hello and NbrUpdate sent.
//
// ROPA sizes its RTA and EXC with an explicit piggyback before sending,
// and sending piggybacks again, so those two kinds carry the slice
// twice. The test pins that too, so output stays byte-identical until
// it is fixed.
func TestTwoHopMaintenance(t *testing.T) {
	for _, tc := range []struct {
		proto        Protocol
		maint, piggy int
		doubled      []packet.Kind
	}{
		{ProtocolROPA, 4, 1, []packet.Kind{packet.KindRTA, packet.KindEXC}},
		{ProtocolCSMAC, 8, 4, nil},
	} {
		t.Run(string(tc.proto), func(t *testing.T) {
			checkTwoHop(t, tc.proto, tc.maint, tc.piggy, tc.doubled)
		})
	}
}

type tableHolder interface {
	Table() *mac.NeighborTable
}

func checkTwoHop(t *testing.T, proto Protocol, maint, piggy int, doubled []packet.Kind) {
	const nodes = 12
	eng := sim.NewEngine(5)
	model := acoustic.DefaultModel()
	topo := make([]*topology.Node, nodes)
	for i := range topo {
		// Two rows of six, 150 m apart: everyone hears everyone.
		topo[i] = &topology.Node{ID: packet.NodeID(i + 1), Pos: vec.V3{X: float64(i%6) * 150, Y: float64(i/6) * 150, Z: 100}}
	}
	region := vec.Box{Min: vec.V3{X: -1e4, Y: -1e4, Z: 0}, Max: vec.V3{X: 1e4, Y: 1e4, Z: 1e4}}
	net, err := topology.NewNetwork(region, model, topo)
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

	protos := make([]mac.Protocol, nodes)
	cursor := make([]int, nodes)
	covered := make([]map[packet.NodeID]bool, nodes)
	sent := make([]int, nodes)
	maintBits := make([]uint64, nodes)
	var updates, pigs, twice int
	for i := range protos {
		i := i
		covered[i] = map[packet.NodeID]bool{}
		modem, err := phy.NewModem(phy.Config{
			ID: packet.NodeID(i + 1), Engine: eng, Model: model,
			Medium: ch, Energy: energy.DefaultProfile(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := ch.Register(modem); err != nil {
			t.Fatal(err)
		}
		modem.SetRecorder(obs.RecorderFunc(func(at sim.Time, e obs.Event) {
			tx, ok := e.(*obs.TxBegin)
			if !ok {
				return
			}
			f := tx.Frame
			full := protos[i].(tableHolder).Table().AppendSnapshot(nil, 0, -1)
			switch {
			case f.Kind == packet.KindNbrUpdate:
				updates++
				maintBits[i] += uint64(f.Bits())
				want := full
				if len(full) > maint {
					want = make([]packet.NeighborInfo, maint)
					for k := range want {
						want[k] = full[(cursor[i]+k)%len(full)]
					}
					cursor[i] = (cursor[i] + maint) % len(full)
				}
				if !slices.Equal(f.Neighbors, want) {
					t.Errorf("node %d NbrUpdate at %v carries %v, want %v", i+1, at, f.Neighbors, want)
				}
				sent[i]++
				for _, n := range f.Neighbors {
					covered[i][n.ID] = true
				}
			case f.Kind.IsControl():
				if f.Kind == packet.KindHello {
					maintBits[i] += uint64(f.Bits())
				}
				want := full[:min(piggy, len(full))]
				got := f.Neighbors
				if slices.Contains(doubled, f.Kind) {
					twice++
					if len(got) < len(want) || len(got) > 2*piggy {
						t.Errorf("node %d %v at %v carries %d entries, want %d..%d", i+1, f.Kind, at, len(got), len(want), 2*piggy)
						return
					}
					got = got[len(got)-len(want):]
				} else {
					pigs++
				}
				if !slices.Equal(got, want) {
					t.Errorf("node %d %v at %v carries %v, want %v", i+1, f.Kind, at, f.Neighbors, want)
				}
			}
		}))
		p, err := buildProtocol(Config{Protocol: proto}, mac.Config{
			ID: packet.NodeID(i + 1), Engine: eng, Modem: modem, Slots: slots,
			BitRate: model.BitRate(), EnableHello: true, HelloWindow: 5 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		modem.SetListener(p)
		protos[i] = p
	}
	for _, p := range protos {
		p.Start()
	}
	// Light, seeded unicast traffic so RTS/CTS/Ack (and the protocols'
	// opportunistic frames) go out between maintenance broadcasts.
	rng := eng.RNG("twohop-traffic")
	for k := 0; k < 120; k++ {
		from := rng.Intn(nodes)
		to := (from + 1 + rng.Intn(nodes-1)) % nodes
		at := sim.At(10*time.Second + time.Duration(rng.Int63n(int64(380*time.Second))))
		p := protos[from]
		eng.ScheduleAt(at, sim.PriorityApp, func() {
			p.Enqueue(mac.AppPacket{Dst: packet.NodeID(to + 1), Bits: 1024})
		})
	}
	eng.RunUntil(sim.At(400 * time.Second))

	rotations := 0
	for i, p := range protos {
		if got := p.Counters().MaintenanceBits; got != maintBits[i] {
			t.Errorf("node %d MaintenanceBits %d, want %d (Hello + NbrUpdate on air)", i+1, got, maintBits[i])
		}
		// Enough windows to cover the table once: every entry went out.
		full := p.(tableHolder).Table().AppendSnapshot(nil, 0, -1)
		if len(full) <= maint || sent[i] < (len(full)+maint-1)/maint {
			continue
		}
		rotations++
		for _, n := range full {
			if !covered[i][n.ID] {
				t.Errorf("node %d: %d NbrUpdates never carried neighbour %d", i+1, sent[i], n.ID)
			}
		}
	}
	if updates < 2*nodes || pigs == 0 || rotations == 0 {
		t.Fatalf("too little traffic to pin anything: %d updates, %d piggybacked frames, %d rotating nodes", updates, pigs, rotations)
	}
	if len(doubled) > 0 && twice == 0 {
		t.Fatalf("no %v frame went on air", doubled)
	}
	t.Logf("%d updates, %d piggybacked control frames, %d doubled", updates, pigs, twice)
}
