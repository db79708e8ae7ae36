package channel

import (
	"math/rand"
	"slices"
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

// logEntry is one observable step of a run: a reception or loss at a
// node, or a probe event.
type logEntry struct {
	at    sim.Time
	node  packet.NodeID
	src   packet.NodeID
	probe int
}

type logListener struct {
	eng *sim.Engine
	id  packet.NodeID
	log *[]logEntry
}

func (l *logListener) OnFrameReceived(f *packet.Frame) {
	*l.log = append(*l.log, logEntry{at: l.eng.Now(), node: l.id, src: f.Src})
}
func (l *logListener) OnFrameLost(f *packet.Frame, _ phy.LossReason) {
	*l.log = append(*l.log, logEntry{at: l.eng.Now(), node: l.id, src: f.Src, probe: 1 << 20})
}
func (l *logListener) OnTxDone(*packet.Frame) {}

// broadcastPerRay is the scheduling waves replace: every ray is its own
// event, scheduled in geometry order (direct ray, then surface echo,
// per receiver), and each arrival schedules its own end through
// BeginArrival.
func (c *Channel) broadcastPerRay(src packet.NodeID, f *packet.Frame, dur time.Duration) {
	c.buildGeoms(c.net.Node(src))
	rays := slices.Clone(c.order)
	slices.SortFunc(rays, func(a, b uint64) int { return int(a&(1<<rayBits-1)) - int(b&(1<<rayBits-1)) })
	for _, k := range rays {
		g, surf := c.scratch[k&(1<<rayBits-1)>>1], k&1 != 0
		level, syncable := g.levelDB, g.syncable
		if surf {
			level, syncable = g.surfLevel, false
		}
		c.eng.ScheduleIn(time.Duration(k>>rayBits), sim.PriorityPHY, func() { g.rx.BeginArrival(f, level, dur, syncable) })
	}
}

// A wave must run its arrivals and ends exactly where scheduling every
// ray on its own would: same instants, same order at ties, with other
// events interleaved. The deployment is a grid, so many receivers share
// a delay, with surface echoes on and broadcasts overlapping.
func TestWaveMatchesPerRayScheduling(t *testing.T) {
	run := func(waves bool) []logEntry {
		eng := sim.NewEngine(1)
		model := acoustic.DefaultModel()
		model.SurfaceReflection = true
		var nodes []*topology.Node
		for i := 0; i < 27; i++ {
			nodes = append(nodes, &topology.Node{
				ID:  packet.NodeID(i + 1),
				Pos: vec.V3{X: float64(i%3) * 600, Y: float64(i/3%3) * 600, Z: 100 + float64(i/9)*200},
			})
		}
		region := vec.Box{Min: vec.V3{X: -1e4, Y: -1e4, Z: 0}, Max: vec.V3{X: 1e4, Y: 1e4, Z: 1e4}}
		net, err := topology.NewNetwork(region, model, nodes)
		if err != nil {
			t.Fatal(err)
		}
		ch, err := New(eng, net)
		if err != nil {
			t.Fatal(err)
		}
		var log []logEntry
		for _, n := range nodes {
			m, err := phy.NewModem(phy.Config{
				ID: n.ID, Engine: eng, Model: model, Medium: ch, Energy: energy.DefaultProfile(),
				Listener: &logListener{eng: eng, id: n.ID, log: &log},
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := ch.Register(m); err != nil {
				t.Fatal(err)
			}
		}
		r := rand.New(rand.NewSource(7))
		dur := packet.Duration(packet.ControlBits, model.BitRate())
		for i := 0; i < 40; i++ {
			at := sim.At(time.Duration(r.Intn(20)) * 50 * time.Millisecond)
			src := packet.NodeID(1 + r.Intn(len(nodes)))
			f := &packet.Frame{Kind: packet.KindRTS, Src: src, Dst: packet.Broadcast}
			eng.ScheduleAt(at, sim.PriorityPHY, func() {
				if waves {
					if err := ch.Broadcast(src, f, dur); err != nil {
						t.Error(err)
					}
				} else {
					ch.broadcastPerRay(src, f, dur)
				}
			})
			// A probe, and a second one it schedules mid-run, so probes
			// draw seqs both before and between the rays' seqs.
			k, d1, d2 := i+1, r.Intn(1500), r.Intn(1500)
			eng.ScheduleAt(at.Add(time.Duration(d1)*time.Millisecond), sim.PriorityPHY, func() {
				log = append(log, logEntry{at: eng.Now(), probe: k})
				eng.ScheduleIn(time.Duration(d2)*time.Millisecond, sim.PriorityPHY, func() {
					log = append(log, logEntry{at: eng.Now(), probe: -k})
				})
			})
		}
		eng.Run()
		return log
	}
	perRay, wave := run(false), run(true)
	if len(perRay) < 100 {
		t.Fatalf("only %d log entries: scenario too sparse", len(perRay))
	}
	if !slices.Equal(perRay, wave) {
		for i := range perRay {
			if i >= len(wave) || perRay[i] != wave[i] {
				t.Fatalf("waves diverge at entry %d of %d: per-ray %+v", i, len(perRay), perRay[i])
			}
		}
		t.Fatalf("waves logged %d entries, per-ray %d", len(wave), len(perRay))
	}
}
