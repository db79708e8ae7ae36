// Package topology manages sensor placement, surface sinks, mobility,
// and the ground-truth pairwise propagation delays the channel uses.
//
// The paper deploys sensors in a water volume with sinks at the surface;
// deeper sensors forward sensing data toward shallower ones (Figure 1).
// Locations change with water currents: each sensor independently is
// static, drifts horizontally, or drifts vertically (§5). Protocol code
// never reads positions — it only ever learns propagation delays from
// received timestamps, exactly as in the paper.
package topology

import (
	"fmt"
	"math"
	"time"

	"ewmac/internal/acoustic"
	"ewmac/internal/packet"
	"ewmac/internal/sim"
	"ewmac/internal/vec"
)

// MobilityKind selects how one node moves.
type MobilityKind uint8

// Mobility kinds per the paper's location models.
const (
	// MobilityStatic keeps the node where it was deployed.
	MobilityStatic MobilityKind = iota + 1
	// MobilityHorizontal drifts the node in the XY plane with a
	// current, wrapping at the region boundary.
	MobilityHorizontal
	// MobilityVertical oscillates the node along the depth axis,
	// reflecting at the region's top and bottom.
	MobilityVertical
)

// String implements fmt.Stringer.
func (k MobilityKind) String() string {
	switch k {
	case MobilityStatic:
		return "static"
	case MobilityHorizontal:
		return "horizontal"
	case MobilityVertical:
		return "vertical"
	default:
		return fmt.Sprintf("MobilityKind(%d)", uint8(k))
	}
}

// Node is one deployed sensor or sink.
type Node struct {
	// ID is the dense identifier used in frames.
	ID packet.NodeID
	// Pos is the current position in meters.
	Pos vec.V3
	// Sink marks surface data sinks (they receive, never generate).
	Sink bool
	// Mobility is this node's movement model.
	Mobility MobilityKind
	// Vel is the drift velocity in m/s (meaning depends on Mobility).
	Vel vec.V3
}

// Network is the deployed set of nodes plus the acoustic environment.
type Network struct {
	// Region is the deployment volume.
	Region vec.Box
	// Model is the acoustic environment used for delays and loss.
	Model *acoustic.Model
	// nodes is indexed by NodeID-1.
	nodes []*Node
}

// NewNetwork wraps nodes (IDs must be dense, starting at 1) in the given
// region and environment.
func NewNetwork(region vec.Box, model *acoustic.Model, nodes []*Node) (*Network, error) {
	if model == nil {
		return nil, fmt.Errorf("topology: nil acoustic model")
	}
	if err := model.Validate(); err != nil {
		return nil, fmt.Errorf("topology: %w", err)
	}
	for i, n := range nodes {
		if n == nil {
			return nil, fmt.Errorf("topology: node %d is nil", i)
		}
		if want := packet.NodeID(i + 1); n.ID != want {
			return nil, fmt.Errorf("topology: node at index %d has ID %v, want dense ID %v", i, n.ID, want)
		}
		if !region.Contains(n.Pos) {
			return nil, fmt.Errorf("topology: node %v at %v outside region", n.ID, n.Pos)
		}
	}
	return &Network{Region: region, Model: model, nodes: nodes}, nil
}

// Len reports the number of nodes.
func (n *Network) Len() int { return len(n.nodes) }

// Node returns the node with the given ID, or nil if it does not exist.
func (n *Network) Node(id packet.NodeID) *Node {
	i := int(id) - 1
	if i < 0 || i >= len(n.nodes) {
		return nil
	}
	return n.nodes[i]
}

// Nodes returns the node slice (callers must not reorder it).
func (n *Network) Nodes() []*Node { return n.nodes }

// MeanDegree reports the average neighbor count, a connectivity check
// used by experiment setup (the density experiments depend on the
// network actually being connected).
func (n *Network) MeanDegree() float64 {
	deg, _ := n.PairStats()
	return deg
}

// MaxPairDelay returns the largest current pairwise delay among in-range
// pairs — the empirical τmax of this topology.
func (n *Network) MaxPairDelay() time.Duration {
	_, maxD := n.PairStats()
	return maxD
}

// PairStats returns MeanDegree and MaxPairDelay from one pass over the
// unordered pairs: range and delay are symmetric, bit for bit, so each
// in-range pair counts once for each end.
func (n *Network) PairStats() (meanDegree float64, maxPairDelay time.Duration) {
	if len(n.nodes) == 0 {
		return 0, 0
	}
	m := n.Model
	ends := 0
	for i, a := range n.nodes {
		for _, b := range n.nodes[i+1:] {
			// InRange and Delay, with the pair's distance computed once.
			dist := a.Pos.Dist(b.Pos)
			if dist > m.MaxRangeM {
				continue
			}
			ends += 2
			maxPairDelay = max(maxPairDelay, m.DelayOver(dist, a.Pos.Depth(), b.Pos.Depth()))
		}
	}
	return float64(ends) / float64(len(n.nodes)), maxPairDelay
}

// Step advances mobility by dt. Horizontal nodes drift with their
// velocity and wrap; vertical nodes move along Z and reflect at the
// region's depth bounds. Sinks never move.
func (n *Network) Step(dt time.Duration) {
	sec := dt.Seconds()
	for _, nd := range n.nodes {
		if nd.Sink {
			continue
		}
		switch nd.Mobility {
		case MobilityHorizontal:
			nd.Pos = n.Region.WrapXY(nd.Pos.Add(vec.V3{X: nd.Vel.X * sec, Y: nd.Vel.Y * sec}))
		case MobilityVertical:
			z := nd.Pos.Z + nd.Vel.Z*sec
			lo, hi := n.Region.Min.Z, n.Region.Max.Z
			if z < lo {
				z = lo + (lo - z)
				nd.Vel.Z = -nd.Vel.Z
			}
			if z > hi {
				z = hi - (z - hi)
				nd.Vel.Z = -nd.Vel.Z
			}
			nd.Pos.Z = math.Max(lo, math.Min(hi, z))
		case MobilityStatic:
			// No movement.
		}
	}
}

// DeployConfig describes a randomized deployment.
type DeployConfig struct {
	// Nodes is the number of sensing nodes (sinks are extra).
	Nodes int
	// Sinks is the number of surface sinks (placed on a surface grid).
	Sinks int
	// Region is the deployment volume.
	Region vec.Box
	// Mobile is the fraction of sensing nodes that move at all; movers
	// split evenly between horizontal and vertical drift (paper §5:
	// "the location of each sensor is changed by randomly selecting
	// one of these models").
	Mobile float64
	// CurrentMS is the drift speed magnitude in m/s.
	CurrentMS float64
}

// Validate reports the first invalid field.
func (c DeployConfig) Validate() error {
	switch {
	case c.Nodes <= 0:
		return fmt.Errorf("topology: %d nodes", c.Nodes)
	case c.Sinks < 0:
		return fmt.Errorf("topology: %d sinks", c.Sinks)
	case c.Mobile < 0 || c.Mobile > 1:
		return fmt.Errorf("topology: mobile fraction %v outside [0, 1]", c.Mobile)
	case c.Region.Volume() <= 0:
		return fmt.Errorf("topology: empty region")
	case c.CurrentMS < 0:
		return fmt.Errorf("topology: negative current %v", c.CurrentMS)
	}
	return nil
}

// Deploy places Sinks sinks on a surface grid and Nodes sensors
// uniformly at random in the region, assigning each sensor a mobility
// model from rng. Node IDs: sinks first (1..Sinks), then sensors.
func Deploy(cfg DeployConfig, model *acoustic.Model, rng *sim.RNG) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nodes := make([]*Node, 0, cfg.Sinks+cfg.Nodes)
	size := cfg.Region.Size()

	// Sinks on a √k × √k surface grid so coverage does not depend on
	// the seed.
	side := int(math.Ceil(math.Sqrt(float64(cfg.Sinks))))
	for i := 0; i < cfg.Sinks; i++ {
		gx, gy := i%side, i/side
		pos := vec.V3{
			X: cfg.Region.Min.X + (float64(gx)+0.5)*size.X/float64(side),
			Y: cfg.Region.Min.Y + (float64(gy)+0.5)*size.Y/float64(side),
			Z: cfg.Region.Min.Z,
		}
		nodes = append(nodes, &Node{
			ID:       packet.NodeID(len(nodes) + 1),
			Pos:      cfg.Region.Clamp(pos),
			Sink:     true,
			Mobility: MobilityStatic,
		})
	}

	for i := 0; i < cfg.Nodes; i++ {
		pos := vec.V3{
			X: cfg.Region.Min.X + rng.Float64()*size.X,
			Y: cfg.Region.Min.Y + rng.Float64()*size.Y,
			Z: cfg.Region.Min.Z + rng.Float64()*size.Z,
		}
		n := &Node{
			ID:       packet.NodeID(len(nodes) + 1),
			Pos:      pos,
			Mobility: MobilityStatic,
		}
		if rng.Float64() < cfg.Mobile {
			angle := rng.Float64() * 2 * math.Pi
			if rng.Intn(2) == 0 {
				n.Mobility = MobilityHorizontal
				n.Vel = vec.V3{X: cfg.CurrentMS * math.Cos(angle), Y: cfg.CurrentMS * math.Sin(angle)}
			} else {
				n.Mobility = MobilityVertical
				dir := 1.0
				if rng.Intn(2) == 0 {
					dir = -1
				}
				n.Vel = vec.V3{Z: dir * cfg.CurrentMS}
			}
		}
		nodes = append(nodes, n)
	}
	return NewNetwork(cfg.Region, model, nodes)
}
