package topology

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"

	"ewmac/internal/acoustic"
	"ewmac/internal/packet"
	"ewmac/internal/sim"
	"ewmac/internal/vec"
)

func testConfig() DeployConfig {
	return DeployConfig{
		Nodes:     60,
		Sinks:     4,
		Region:    vec.Cube(1000),
		Mobile:    0.5,
		CurrentMS: 0.5,
	}
}

func deploy(t *testing.T, cfg DeployConfig) *Network {
	t.Helper()
	net, err := Deploy(cfg, acoustic.DefaultModel(), sim.NewEngine(1).RNG("deploy"))
	if err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	return net
}

// Delay returns the current true propagation delay between two nodes.
func (n *Network) Delay(a, b packet.NodeID) (time.Duration, error) {
	na, nb := n.Node(a), n.Node(b)
	if na == nil || nb == nil {
		return 0, fmt.Errorf("topology: delay between unknown nodes %v, %v", a, b)
	}
	return n.Model.Delay(na.Pos, nb.Pos), nil
}

// InRange reports whether two nodes can currently hear each other.
func (n *Network) InRange(a, b packet.NodeID) bool {
	na, nb := n.Node(a), n.Node(b)
	if na == nil || nb == nil || a == b {
		return false
	}
	return n.Model.InRange(na.Pos, nb.Pos)
}

// Neighbors returns the IDs currently within range of a, in ID order.
func (n *Network) Neighbors(a packet.NodeID) []packet.NodeID {
	na := n.Node(a)
	if na == nil {
		return nil
	}
	var out []packet.NodeID
	for _, other := range n.nodes {
		if other.ID != a && n.Model.InRange(na.Pos, other.Pos) {
			out = append(out, other.ID)
		}
	}
	return out
}

func TestDeployBasics(t *testing.T) {
	cfg := testConfig()
	net := deploy(t, cfg)
	if net.Len() != cfg.Nodes+cfg.Sinks {
		t.Fatalf("Len = %d, want %d", net.Len(), cfg.Nodes+cfg.Sinks)
	}
	for i := 1; i <= cfg.Sinks; i++ {
		n := net.Node(packet.NodeID(i))
		if !n.Sink {
			t.Errorf("node %d should be a sink", i)
		}
		if n.Pos.Z != 0 {
			t.Errorf("sink %d at depth %v, want surface", i, n.Pos.Z)
		}
	}
	for _, n := range net.Nodes() {
		if !net.Region.Contains(n.Pos) {
			t.Errorf("node %v deployed outside region", n.ID)
		}
	}
}

func TestDeployDeterministic(t *testing.T) {
	a := deploy(t, testConfig())
	b := deploy(t, testConfig())
	for i, n := range a.Nodes() {
		m := b.Nodes()[i]
		if n.Pos != m.Pos || n.Mobility != m.Mobility || n.Vel != m.Vel {
			t.Fatalf("node %d differs between same-seed deployments", i)
		}
	}
}

func TestDeployConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		edit func(*DeployConfig)
	}{
		{"zero nodes", func(c *DeployConfig) { c.Nodes = 0 }},
		{"negative sinks", func(c *DeployConfig) { c.Sinks = -1 }},
		{"mobile > 1", func(c *DeployConfig) { c.Mobile = 1.5 }},
		{"empty region", func(c *DeployConfig) { c.Region = vec.Box{} }},
		{"negative current", func(c *DeployConfig) { c.CurrentMS = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			tc.edit(&cfg)
			if _, err := Deploy(cfg, acoustic.DefaultModel(), sim.NewEngine(1).RNG("d")); err == nil {
				t.Error("Deploy accepted invalid config")
			}
		})
	}
}

func TestNewNetworkRejectsBadNodes(t *testing.T) {
	model := acoustic.DefaultModel()
	region := vec.Cube(1000)
	if _, err := NewNetwork(region, nil, nil); err == nil {
		t.Error("nil model accepted")
	}
	if _, err := NewNetwork(region, model, []*Node{nil}); err == nil {
		t.Error("nil node accepted")
	}
	if _, err := NewNetwork(region, model, []*Node{{ID: 5}}); err == nil {
		t.Error("non-dense ID accepted")
	}
	outside := []*Node{{ID: 1, Pos: vec.V3{X: 1e9}}}
	if _, err := NewNetwork(region, model, outside); err == nil {
		t.Error("out-of-region node accepted")
	}
}

func TestDelayAndRange(t *testing.T) {
	model := acoustic.DefaultModel()
	nodes := []*Node{
		{ID: 1, Pos: vec.V3{Z: 100}},
		{ID: 2, Pos: vec.V3{X: 750, Z: 100}},
		{ID: 3, Pos: vec.V3{X: 450, Y: 300, Z: 900}},
	}
	net, err := NewNetwork(vec.Cube(2000), model, nodes)
	if err != nil {
		t.Fatal(err)
	}
	d, err := net.Delay(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := 500 * time.Millisecond // 750 m at 1500 m/s
	if diff := d - want; diff < -time.Millisecond || diff > time.Millisecond {
		t.Errorf("Delay(1,2) = %v, want ≈%v", d, want)
	}
	if _, err := net.Delay(1, 99); err == nil {
		t.Error("Delay with unknown node accepted")
	}
	if !net.InRange(1, 2) {
		t.Error("750 m pair out of range")
	}
	if net.InRange(1, 1) {
		t.Error("node in range of itself")
	}
	nbrs := net.Neighbors(1)
	if len(nbrs) != 2 {
		t.Errorf("Neighbors(1) = %v, want both others", nbrs)
	}
}

func TestMaxPairDelayAndMeanDegree(t *testing.T) {
	net := deploy(t, testConfig())
	maxD := net.MaxPairDelay()
	if maxD <= 0 || maxD > net.Model.MaxDelay()+50*time.Millisecond {
		t.Errorf("MaxPairDelay = %v outside (0, τmax]", maxD)
	}
	// In a 1 km cube with 1.5 km range, almost everyone hears everyone.
	if deg := net.MeanDegree(); deg < float64(net.Len())/2 {
		t.Errorf("MeanDegree = %v, implausibly low for 1 km cube", deg)
	}
}

func TestStepHorizontalWraps(t *testing.T) {
	model := acoustic.DefaultModel()
	n := &Node{ID: 1, Pos: vec.V3{X: 499, Z: 100}, Mobility: MobilityHorizontal, Vel: vec.V3{X: 10}}
	net, err := NewNetwork(vec.Cube(1000), model, []*Node{n})
	if err != nil {
		t.Fatal(err)
	}
	net.Step(time.Second) // x = 509 → wraps to -491
	if !net.Region.Contains(n.Pos) {
		t.Fatalf("node left region: %v", n.Pos)
	}
	if math.Abs(n.Pos.X-(-491)) > 1e-9 {
		t.Errorf("X = %v, want -491 (wrapped)", n.Pos.X)
	}
	if n.Pos.Z != 100 {
		t.Error("horizontal drift changed depth")
	}
}

func TestStepVerticalReflects(t *testing.T) {
	model := acoustic.DefaultModel()
	n := &Node{ID: 1, Pos: vec.V3{Z: 995}, Mobility: MobilityVertical, Vel: vec.V3{Z: 10}}
	net, err := NewNetwork(vec.Cube(1000), model, []*Node{n})
	if err != nil {
		t.Fatal(err)
	}
	net.Step(time.Second) // z = 1005 → reflect to 995, velocity flips
	if math.Abs(n.Pos.Z-995) > 1e-9 {
		t.Errorf("Z = %v, want 995 after reflection", n.Pos.Z)
	}
	if n.Vel.Z != -10 {
		t.Errorf("Vel.Z = %v, want -10 after reflection", n.Vel.Z)
	}
}

func TestStepStaticAndSinksStay(t *testing.T) {
	net := deploy(t, testConfig())
	before := make([]vec.V3, net.Len())
	for i, n := range net.Nodes() {
		before[i] = n.Pos
	}
	net.Step(10 * time.Second)
	for i, n := range net.Nodes() {
		moved := n.Pos != before[i]
		if n.Sink && moved {
			t.Errorf("sink %v moved", n.ID)
		}
		if n.Mobility == MobilityStatic && moved {
			t.Errorf("static node %v moved", n.ID)
		}
		if n.Mobility == MobilityHorizontal && !moved {
			t.Errorf("horizontal node %v did not move", n.ID)
		}
	}
}

// Property: mobility never moves a node outside the region, for any
// sequence of steps.
func TestStepStaysInRegionProperty(t *testing.T) {
	f := func(steps []uint8, seed int64) bool {
		net, err := Deploy(testConfig(), acoustic.DefaultModel(), sim.NewEngine(seed).RNG("deploy"))
		if err != nil {
			return false
		}
		for _, s := range steps {
			net.Step(time.Duration(s) * time.Second)
			for _, n := range net.Nodes() {
				if !net.Region.Contains(n.Pos) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: Delay is symmetric regardless of mobility history.
func TestDelaySymmetric(t *testing.T) {
	net := deploy(t, testConfig())
	net.Step(30 * time.Second)
	ids := []packet.NodeID{1, 5, 10, 20, 40}
	for _, a := range ids {
		for _, b := range ids {
			if a == b {
				continue
			}
			da, err1 := net.Delay(a, b)
			db, err2 := net.Delay(b, a)
			if err1 != nil || err2 != nil || da != db {
				t.Fatalf("Delay(%v,%v)=%v,%v vs Delay(%v,%v)=%v,%v", a, b, da, err1, b, a, db, err2)
			}
		}
	}
}

func TestMobilityKindString(t *testing.T) {
	if MobilityStatic.String() != "static" ||
		MobilityHorizontal.String() != "horizontal" ||
		MobilityVertical.String() != "vertical" {
		t.Error("MobilityKind.String changed")
	}
}
