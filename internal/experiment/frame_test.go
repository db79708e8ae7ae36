package experiment

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"ewmac/internal/obs"
	"ewmac/internal/packet"
	"ewmac/internal/sim"
)

// TestFramesImmutableOnceTransmitted pins the contract that lets the
// channel hand every receiver the transmitted frame itself: no MAC,
// PHY, channel or recorder changes a frame from phy.Modem.Transmit on.
// Every protocol runs static and with half the sensors drifting; each
// frame is copied at obs.TxBegin (Neighbors included) and must still
// equal its copy when the run ends.
func TestFramesImmutableOnceTransmitted(t *testing.T) {
	for _, p := range allProtocols {
		for _, mobile := range []float64{0, 0.5} {
			t.Run(fmt.Sprintf("%s/mobile=%g", p, mobile), func(t *testing.T) {
				t.Parallel()
				cfg := Default(p)
				cfg.Nodes = 24
				cfg.Sinks = 2
				cfg.OfferedLoadKbps = 1.5
				cfg.MobileFraction = mobile
				cfg.CurrentMS = 1.5
				cfg.SimTime = 120 * time.Second
				cfg.Seed = 7
				type sent struct {
					f    *packet.Frame
					copy packet.Frame
				}
				var tx []sent
				cfg.Observe = &Observe{Recorder: obs.RecorderFunc(func(_ sim.Time, e obs.Event) {
					if b, ok := e.(*obs.TxBegin); ok {
						c := *b.Frame
						c.Neighbors = slices.Clone(c.Neighbors)
						tx = append(tx, sent{b.Frame, c})
					}
				})}
				if _, err := Run(cfg); err != nil {
					t.Fatal(err)
				}
				if len(tx) == 0 {
					t.Fatal("no frame was transmitted")
				}
				changed := 0
				for _, s := range tx {
					if !reflect.DeepEqual(*s.f, s.copy) {
						if changed++; changed <= 3 {
							t.Errorf("%v changed after transmission: was %+v, now %+v", s.copy.Kind, s.copy, *s.f)
						}
					}
				}
				if changed > 0 {
					t.Errorf("%d of %d transmitted frames changed", changed, len(tx))
				}
			})
		}
	}
}
