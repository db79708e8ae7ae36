// Package traffic generates the offered load of the paper's
// evaluation: a network-wide Poisson process of fixed-size data
// packets, expressed in kbps of generated payload (Figure 8 calibrates
// the unit: "20 packets per 300 s ≈ 0.136 kbps" at 2048-bit packets).
// Each non-sink node runs an independent Poisson stream of rate
// λ/N so the aggregate is the configured network-wide load.
package traffic

import (
	"errors"
	"fmt"
	"time"

	"ewmac/internal/mac"
	"ewmac/internal/packet"
	"ewmac/internal/sim"
)

// Sink accepts generated packets (implemented by mac.Protocol).
type Sink interface {
	Enqueue(p mac.AppPacket)
}

// Router resolves a generator node's next hop at packet-creation time.
type Router func(from packet.NodeID) (packet.NodeID, bool)

// Generator drives Poisson arrivals for one node.
type Generator struct {
	node    packet.NodeID
	eng     *sim.Engine
	rng     *sim.RNG
	sink    Sink
	route   Router
	rate    float64 // packets per second
	bits    int
	seq     uint32
	stopAt  sim.Time
	startAt sim.Time

	// Closed-loop mode: backpressure is the MAC's congestion signal;
	// normal-priority packets are withheld (counted in throttled) while
	// it reports overload. highEvery > 0 marks every Nth packet
	// high-priority; high packets are never throttled.
	backpressure func() bool
	highEvery    int

	generated uint64
	unrouted  uint64
	throttled uint64
}

// Config assembles a Generator.
type Config struct {
	Node   packet.NodeID
	Engine *sim.Engine
	Sink   Sink
	Route  Router
	// RatePPS is this node's Poisson rate in packets per second.
	RatePPS float64
	// Bits is the payload size of every generated packet.
	Bits int
	// Start and Stop bound the generation window.
	Start, Stop sim.Time
	// Backpressure, when non-nil, turns the generator closed-loop: each
	// normal-priority arrival consults it and is withheld (not offered
	// to the MAC) while it reports true. Nil keeps the historical
	// open-loop behaviour. The Poisson schedule itself is untouched, so
	// the RNG stream is identical either way.
	Backpressure func() bool
	// HighEvery marks every Nth generated packet high-priority (0 =
	// never). High packets bypass the backpressure check.
	HighEvery int
}

// NewGenerator validates cfg and returns an unstarted generator.
func NewGenerator(cfg Config) (*Generator, error) {
	switch {
	case cfg.Node == packet.Nobody:
		return nil, errors.New("traffic: no node")
	case cfg.Engine == nil:
		return nil, errors.New("traffic: nil engine")
	case cfg.Sink == nil:
		return nil, errors.New("traffic: nil sink")
	case cfg.Route == nil:
		return nil, errors.New("traffic: nil router")
	case cfg.Bits <= 0:
		return nil, fmt.Errorf("traffic: %d payload bits", cfg.Bits)
	case cfg.RatePPS < 0:
		return nil, fmt.Errorf("traffic: negative rate %v", cfg.RatePPS)
	case cfg.Stop <= cfg.Start:
		return nil, fmt.Errorf("traffic: window [%v, %v] empty", cfg.Start, cfg.Stop)
	case cfg.HighEvery < 0:
		return nil, fmt.Errorf("traffic: negative HighEvery %d", cfg.HighEvery)
	}
	return &Generator{
		node:         cfg.Node,
		eng:          cfg.Engine,
		rng:          cfg.Engine.Stream("traffic", int(cfg.Node)),
		sink:         cfg.Sink,
		route:        cfg.Route,
		rate:         cfg.RatePPS,
		bits:         cfg.Bits,
		startAt:      cfg.Start,
		stopAt:       cfg.Stop,
		backpressure: cfg.Backpressure,
		highEvery:    cfg.HighEvery,
	}, nil
}

// Start arms the first arrival.
func (g *Generator) Start() {
	if g.rate <= 0 {
		return
	}
	g.scheduleNext(g.startAt)
}

func (g *Generator) scheduleNext(from sim.Time) {
	gap := time.Duration(g.rng.ExpFloat64Rate(g.rate) * float64(time.Second))
	at := from.Add(gap)
	if at.After(g.stopAt) {
		return
	}
	g.eng.ScheduleAt(at, sim.PriorityApp, func() {
		g.fire()
		g.scheduleNext(g.eng.Now())
	})
}

func (g *Generator) fire() {
	dst, ok := g.route(g.node)
	if !ok {
		g.unrouted++
		return
	}
	g.seq++
	high := g.highEvery > 0 && g.seq%uint32(g.highEvery) == 0
	if g.backpressure != nil && !high && g.backpressure() {
		// Closed loop: the MAC says it is overloaded, so this arrival
		// is withheld at the source rather than shed at the queue. The
		// sequence number is still consumed — the stream's identity is
		// its schedule, not its admissions.
		g.throttled++
		return
	}
	g.generated++
	g.sink.Enqueue(mac.AppPacket{
		Dst:         dst,
		Bits:        g.bits,
		Origin:      g.node,
		Seq:         g.seq,
		GeneratedAt: g.eng.Now().Duration(),
		High:        high,
	})
}

// Unrouted reports packets dropped for lack of a next hop.
func (g *Generator) Unrouted() uint64 { return g.unrouted }

// Throttled reports packets withheld at the source by backpressure.
func (g *Generator) Throttled() uint64 { return g.throttled }

// PerNodeRate converts a network-wide offered load in kbps into the
// per-node Poisson rate in packets per second for n generating nodes
// sending packets of the given payload size.
func PerNodeRate(loadKbps float64, bits, n int) float64 {
	if loadKbps <= 0 || bits <= 0 || n <= 0 {
		return 0
	}
	return loadKbps * 1000 / float64(bits) / float64(n)
}
