// Package sfama implements Slotted FAMA (Molins & Stojanovic, OCEANS
// 2006), the conservative baseline of the paper's evaluation. Time is
// divided into slots of length τmax + ω; every RTS, CTS, Data, and Ack
// is sent at a slot boundary; any node that overhears a negotiation
// frame not addressed to it defers for the full predicted duration of
// that exchange. Each transmission therefore reserves the worst-case
// propagation delay, which is exactly why its bandwidth utilization is
// poor — the property EW-MAC exploits.
//
// S-FAMA is the shared base engine with its default hooks: a receiver
// answers the first RTS to arrive, a losing contender backs off, no
// neighbour state rides on control frames (the zero-overhead baseline
// of Figure 10), and there is no extra-communication path.
package sfama

import "ewmac/internal/mac"

// MAC is the Slotted FAMA protocol.
type MAC struct {
	*mac.Base
}

var _ mac.Protocol = (*MAC)(nil)

// New builds an S-FAMA node over the shared base engine.
func New(cfg mac.Config) (*MAC, error) {
	base, err := mac.NewBase(cfg)
	if err != nil {
		return nil, err
	}
	return &MAC{Base: base}, nil
}
