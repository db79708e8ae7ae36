// Package routing provides the depth-greedy next-hop selection the
// paper's system model implies (Figure 1): sensors at greater depths
// transmit toward sensors closer to the surface, where sinks collect
// the data. The paper assumes localization is handled by dedicated
// protocols (§3.1, refs [23,24]), so next hops are computed from the
// topology's ground truth rather than learned.
//
// The choice of the *nearest* shallower neighbor (rather than the
// farthest-progress one) is deliberate: it is the energy-minimizing
// greedy rule common in UASN routing, and it is what couples node
// density to pairwise propagation delay — the effect behind Figure 7
// (denser networks → closer next hops → smaller exploitable waiting
// windows).
package routing

import (
	"math"

	"ewmac/internal/packet"
	"ewmac/internal/topology"
)

// MinDepthGain is how much shallower (in meters) a candidate must be
// to count as progress toward the surface. The value does double duty:
// it bounds hop count, and it concentrates each node's traffic on a
// small set of parents, reproducing the convergecast fan-in of the
// paper's Figure 1 — without fan-in, the same-target contention that
// triggers extra communications (Figure 4) almost never arises. See
// DESIGN.md, calibration decision 3.
const MinDepthGain = 400.0

// NextHop returns the nearest in-range neighbor that is at least
// MinDepthGain shallower than from; sinks qualify like any other node.
// If no shallower neighbor is in range it falls back to the nearest
// in-range sink, and reports false if neither exists.
func NextHop(net *topology.Network, from packet.NodeID) (packet.NodeID, bool) {
	src := net.Node(from)
	if src == nil {
		return packet.Nobody, false
	}
	best := packet.Nobody
	bestDist := math.Inf(1)
	var fallback packet.NodeID
	fallbackDist := math.Inf(1)
	for _, n := range net.Nodes() {
		if n.ID == from {
			continue
		}
		if !net.Model.InRange(src.Pos, n.Pos) {
			continue
		}
		d := src.Pos.Dist(n.Pos)
		if n.Pos.Depth() <= src.Pos.Depth()-MinDepthGain {
			if d < bestDist {
				best, bestDist = n.ID, d
			}
		}
		if n.Sink && d < fallbackDist {
			fallback, fallbackDist = n.ID, d
		}
	}
	if best != packet.Nobody {
		return best, true
	}
	if fallback != packet.Nobody {
		return fallback, true
	}
	return packet.Nobody, false
}
