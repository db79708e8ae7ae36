package routing

import (
	"fmt"
	"testing"

	"ewmac/internal/acoustic"
	"ewmac/internal/packet"
	"ewmac/internal/sim"
	"ewmac/internal/topology"
	"ewmac/internal/vec"
)

func network(t *testing.T, nodes []*topology.Node) *topology.Network {
	t.Helper()
	region := vec.Box{Min: vec.V3{X: -1e4, Y: -1e4, Z: 0}, Max: vec.V3{X: 1e4, Y: 1e4, Z: 1e4}}
	net, err := topology.NewNetwork(region, acoustic.DefaultModel(), nodes)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestNextHopPicksNearestShallower(t *testing.T) {
	net := network(t, []*topology.Node{
		{ID: 1, Pos: vec.V3{Z: 0}, Sink: true},
		{ID: 2, Pos: vec.V3{X: 600, Z: 300}},
		{ID: 3, Pos: vec.V3{X: 110, Z: 380}}, // nearest qualifying parent of 4
		{ID: 4, Pos: vec.V3{X: 100, Z: 800}},
	})
	hop, ok := NextHop(net, 4)
	if !ok || hop != 3 {
		t.Errorf("NextHop(4) = %v, %v; want node 3", hop, ok)
	}
	hop, ok = NextHop(net, 3)
	if !ok || hop != 1 {
		t.Errorf("NextHop(3) = %v, %v; want the sink", hop, ok)
	}
}

func TestNextHopIgnoresDeeperAndTinyGains(t *testing.T) {
	net := network(t, []*topology.Node{
		{ID: 1, Pos: vec.V3{Z: 0}, Sink: true},
		{ID: 2, Pos: vec.V3{X: 10, Z: 500}},
		{ID: 3, Pos: vec.V3{X: 20, Z: 500 - MinDepthGain/2}}, // not enough depth gain
		{ID: 4, Pos: vec.V3{X: 15, Z: 900}},                  // deeper
	})
	hop, ok := NextHop(net, 2)
	if !ok || hop != 1 {
		t.Errorf("NextHop(2) = %v, %v; want sink (3 is not shallower enough, 4 is deeper)", hop, ok)
	}
}

func TestNextHopFallsBackToSink(t *testing.T) {
	// Node 2 is the shallowest sensor but a sink is in range.
	net := network(t, []*topology.Node{
		{ID: 1, Pos: vec.V3{X: 500, Z: 0}, Sink: true},
		{ID: 2, Pos: vec.V3{Z: 0.5}},
	})
	hop, ok := NextHop(net, 2)
	if !ok || hop != 1 {
		t.Errorf("NextHop = %v, %v; want sink fallback", hop, ok)
	}
}

func TestNextHopUnreachable(t *testing.T) {
	net := network(t, []*topology.Node{
		{ID: 1, Pos: vec.V3{Z: 0}, Sink: true},
		{ID: 2, Pos: vec.V3{X: 9000, Z: 500}}, // out of range of everything
	})
	if _, ok := NextHop(net, 2); ok {
		t.Error("isolated node found a next hop")
	}
	if _, ok := NextHop(net, 99); ok {
		t.Error("unknown node found a next hop")
	}
}

// HopOutcome classifies how a HopCount walk ended.
type HopOutcome int

const (
	// HopReached: a sink was reached; the hop count is the path length.
	HopReached HopOutcome = iota
	// HopNoRoute: the walk hit a node with no next hop; the hop count
	// is the hops actually walked before getting stuck (0 when the
	// starting node itself has no route).
	HopNoRoute
	// HopBudgetExceeded: maxHops hops were walked without reaching a
	// sink — a routing loop, or a budget smaller than the path.
	HopBudgetExceeded
)

// String renders the outcome for test failures and logs.
func (o HopOutcome) String() string {
	switch o {
	case HopReached:
		return "reached"
	case HopNoRoute:
		return "no-route"
	case HopBudgetExceeded:
		return "budget-exceeded"
	default:
		return fmt.Sprintf("HopOutcome(%d)", int(o))
	}
}

// HopCount walks next hops from a node until a sink is reached,
// returning the hops actually walked and how the walk ended. maxHops
// bounds the walk (guarding against routing loops on degenerate
// topologies); a walk cut by the budget reports HopBudgetExceeded,
// distinct from the HopNoRoute dead end.
func HopCount(net *topology.Network, from packet.NodeID, maxHops int) (int, HopOutcome) {
	cur := from
	for h := 1; h <= maxHops; h++ {
		next, ok := NextHop(net, cur)
		if !ok {
			// Hop h was never taken: only h-1 hops were walked.
			return h - 1, HopNoRoute
		}
		if n := net.Node(next); n != nil && n.Sink {
			return h, HopReached
		}
		cur = next
	}
	return maxHops, HopBudgetExceeded
}

func TestHopCountReachesSink(t *testing.T) {
	// A vertical chain, 700 m between nodes.
	nodes := []*topology.Node{{ID: 1, Pos: vec.V3{Z: 0}, Sink: true}}
	for i := 2; i <= 5; i++ {
		nodes = append(nodes, &topology.Node{ID: packet.NodeID(i), Pos: vec.V3{Z: float64(i-1) * 700}})
	}
	net := network(t, nodes)
	hops, out := HopCount(net, 5, 10)
	if out != HopReached || hops != 4 {
		t.Errorf("HopCount = %d, %v; want 4 hops to sink", hops, out)
	}
	// A budget smaller than the path is exhaustion, not a dead end.
	if hops, out := HopCount(net, 5, 2); out != HopBudgetExceeded || hops != 2 {
		t.Errorf("HopCount under budget = %d, %v; want 2 hops, budget-exceeded", hops, out)
	}
}

func TestHopCountDeadEndReportsHopsWalked(t *testing.T) {
	// 2 routes to 1 (700 m shallower, in range); 1 is stuck: nothing in
	// range is shallower or a sink. The walk takes exactly one hop.
	net := network(t, []*topology.Node{
		{ID: 1, Pos: vec.V3{Z: 700}},
		{ID: 2, Pos: vec.V3{Z: 1400}},
	})
	hops, out := HopCount(net, 2, 10)
	if out != HopNoRoute || hops != 1 {
		t.Errorf("HopCount to dead end = %d, %v; want 1 hop walked, no-route", hops, out)
	}
	// A stuck starting node walks zero hops.
	if hops, out := HopCount(net, 1, 10); out != HopNoRoute || hops != 0 {
		t.Errorf("HopCount from stuck node = %d, %v; want 0 hops, no-route", hops, out)
	}
	// An unknown starting node is a zero-hop no-route, not a panic.
	if hops, out := HopCount(net, 99, 10); out != HopNoRoute || hops != 0 {
		t.Errorf("HopCount from unknown node = %d, %v; want 0 hops, no-route", hops, out)
	}
}

func TestHopCountOutcomeStrings(t *testing.T) {
	for _, c := range []struct {
		o    HopOutcome
		want string
	}{
		{HopReached, "reached"}, {HopNoRoute, "no-route"},
		{HopBudgetExceeded, "budget-exceeded"}, {HopOutcome(42), "HopOutcome(42)"},
	} {
		if got := c.o.String(); got != c.want {
			t.Errorf("HopOutcome(%d).String() = %q, want %q", int(c.o), got, c.want)
		}
	}
}

func TestDeployedNetworkFullyRouted(t *testing.T) {
	net, err := topology.Deploy(topology.DeployConfig{
		Nodes:  60,
		Sinks:  4,
		Region: vec.Cube(1000),
	}, acoustic.DefaultModel(), sim.NewEngine(1).RNG("deploy"))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range net.Nodes() {
		if n.Sink {
			continue
		}
		if _, ok := NextHop(net, n.ID); !ok {
			t.Errorf("node %v has no route", n.ID)
		}
		if hops, out := HopCount(net, n.ID, 32); out != HopReached {
			t.Errorf("node %v cannot reach a sink (%v after %d hops)", n.ID, out, hops)
		}
	}
}
