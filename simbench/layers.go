package main

import (
	"fmt"
	"math/rand"
	"time"

	"ewmac"
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

// layerTime is how long each layer micro-benchmark repeats its operation.
const layerTime = 250 * time.Millisecond

// cost is a layer micro-benchmark's measurement: time and allocations per
// operation.
type cost struct {
	ns, allocs float64
}

// repeat calls op in a loop for at least layerTime and returns its mean
// cost. Each call performs perCall operations.
func repeat(perCall int, op func()) cost {
	op() // fill lazily built state before timing
	a0, _ := mallocs()
	start := time.Now()
	calls := 0
	for time.Since(start) < layerTime {
		for i := 0; i < 64; i++ {
			op()
		}
		calls += 64
	}
	d := time.Since(start)
	a1, _ := mallocs()
	ops := float64(calls * perCall)
	return cost{ns: float64(d) / ops, allocs: float64(a1-a0) / ops}
}

// sink keeps the micro-benchmarks' pure computations from being optimized away.
var sink float64

// engineCost is the engine micro-benchmark cmd/benchjson has always run: one call
// schedules a batch of 1024 events at random offsets and runs them. The
// cost is per event; allocations are per batch.
func engineCost() cost {
	const batch = 1024
	e := sim.NewEngine(1)
	r := rand.New(rand.NewSource(1))
	c := repeat(batch, func() {
		for j := 0; j < batch; j++ {
			e.ScheduleIn(time.Duration(r.Intn(1000))*time.Microsecond, sim.PriorityMAC, func() {})
		}
		e.Run()
	})
	c.allocs *= batch
	return c
}

// acousticCosts times the ambient-noise and SINR computations every
// arrival pays.
func acousticCosts() (noise, sinr cost) {
	m := acoustic.DefaultModel()
	noise = repeat(1, func() { sink += m.NoiseLevelDB() })
	levels := [8]float64{60, 65, 70, 75, 80, 85, 90, 95}
	i := 0
	sinr = repeat(1, func() {
		i++
		sink += m.SINRDBFromLin(levels[i&7], acoustic.DBToLin(levels[(i+3)&7]))
	})
	return noise, sinr
}

// medium is a channel over the deployment cfg would produce, with a
// modem registered for every node.
type medium struct {
	eng    *sim.Engine
	model  *acoustic.Model
	net    *topology.Network
	ch     *channel.Channel
	modems []*phy.Modem
}

func newMedium(cfg ewmac.Config) (*medium, error) {
	eng := sim.NewEngine(cfg.Seed)
	model := acoustic.DefaultModel()
	net, err := topology.Deploy(topology.DeployConfig{
		Nodes:     cfg.Nodes,
		Sinks:     cfg.Sinks,
		Region:    vec.Cube(cfg.RegionSide),
		Mobile:    cfg.MobileFraction,
		CurrentMS: cfg.CurrentMS,
	}, model, eng.RNG("deploy"))
	if err != nil {
		return nil, fmt.Errorf("deploy: %w", err)
	}
	ch, err := channel.New(eng, net)
	if err != nil {
		return nil, fmt.Errorf("channel: %w", err)
	}
	md := &medium{eng: eng, model: model, net: net, ch: ch}
	for _, n := range net.Nodes() {
		m, err := phy.NewModem(phy.Config{
			ID: n.ID, Engine: eng, Model: model, Medium: ch, Energy: energy.DefaultProfile(),
		})
		if err != nil {
			return nil, fmt.Errorf("modem %v: %w", n.ID, err)
		}
		if err := ch.Register(m); err != nil {
			return nil, fmt.Errorf("register %v: %w", n.ID, err)
		}
		md.modems = append(md.modems, m)
	}
	return md, nil
}

// broadcastCost times one control-frame broadcast, sources taken in
// turn, including the arrivals it schedules at every receiver in
// interference range.
func (md *medium) broadcastCost() (cost, error) {
	nodes := md.net.Nodes()
	frames := make([]*packet.Frame, len(nodes))
	for i, n := range nodes {
		frames[i] = &packet.Frame{Kind: packet.KindRTS, Src: n.ID, Dst: nodes[(i+1)%len(nodes)].ID}
	}
	dur := packet.Duration(packet.ControlBits, md.model.BitRate())
	var err error
	i := 0
	c := repeat(1, func() {
		f := frames[i%len(frames)]
		i++
		if e := md.ch.Broadcast(f.Src, f, dur); e != nil && err == nil {
			err = e
		}
		md.eng.Run()
	})
	return c, err
}

// arrivalCost times one arrival at a receiver, begun together with
// overlap-1 others so that the SINR path sees the workload's mean
// number of concurrent arrivals.
func (md *medium) arrivalCost(overlap int) cost {
	if overlap < 1 {
		overlap = 1
	}
	m := md.modems[0]
	f := &packet.Frame{Kind: packet.KindData, Src: 2, Dst: m.ID(), DataBits: 2048}
	dur := f.TxDuration(md.model.BitRate())
	level := md.model.NoiseLevelDB() + md.model.SINRThresholdDB + 10
	return repeat(overlap, func() {
		for j := 0; j < overlap; j++ {
			m.BeginArrival(f, level+float64(j), dur, true)
		}
		md.eng.Run()
	})
}

// queueCost times a Push and a Pop on a MAC queue under policy, held at
// depth packets.
func queueCost(policy ewmac.DropPolicy, depth int) cost {
	const queueMax = 128
	depth = max(1, min(depth, queueMax))
	q := mac.NewQueue(mac.Config{
		QueueMax: queueMax,
		Overload: ewmac.OverloadConfig{Policy: policy, PacketTTL: 30 * time.Second},
	}, func() time.Duration { return 0 }, nil, nil)
	p := mac.AppPacket{Dst: 1, Bits: 2048, Origin: 2, Deadline: time.Hour}
	for i := 0; i < depth; i++ {
		p.Seq++
		q.Push(p)
	}
	return repeat(1, func() {
		p.Seq++
		q.Push(p)
		q.Pop()
	})
}
