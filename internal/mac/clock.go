package mac

import (
	"time"

	"ewmac/internal/sim"
)

// Clock models the node's local oscillator. The slotted protocols act
// on *local* time: slot boundaries fire where the local clock claims
// the boundary is, and outgoing frames are stamped with local readings
// — so a drifting clock perturbs both the node's transmission timing
// and every delay measurement its neighbors derive from its frames,
// exactly the failure mode the fault layer injects.
//
// A nil Clock in Config means a perfect oscillator: local time equals
// simulation time and every code path reduces bit-identically to the
// pre-fault behaviour.
type Clock interface {
	// Local converts true simulation time to this node's local reading.
	Local(t sim.Time) time.Duration
	// TrueTime converts a local reading back to the true simulation
	// instant at which the local clock shows it.
	TrueTime(local time.Duration) sim.Time
}
