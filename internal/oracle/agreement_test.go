package oracle_test

import (
	"testing"
	"time"

	"ewmac/internal/acoustic"
	"ewmac/internal/experiment"
	"ewmac/internal/obs"
	"ewmac/internal/oracle"
	"ewmac/internal/phy"
	"ewmac/internal/sim"
)

// These tests run full simulations with the batch reference oracle
// (batch_test.go) attached through Observe.Recorder.

// allProtocols is the paper's four protocols plus the S-ALOHA baseline.
var allProtocols = append(append([]experiment.Protocol(nil), experiment.Protocols...), experiment.ProtocolSALOHA)

// attachOracle wires a batch Equation (1) oracle into a scenario through
// Observe.Recorder (keeping any other Observe settings).
func attachOracle(cfg *experiment.Config) *oracle.Oracle {
	model := acoustic.DefaultModel()
	o := oracle.New(model.BitRate(), model.SINRThresholdDB)
	if cfg.Observe == nil {
		cfg.Observe = &experiment.Observe{}
	}
	cfg.Observe.Recorder = obs.RecorderFunc(func(now sim.Time, e obs.Event) {
		switch ev := e.(type) {
		case *obs.FrameEmit:
			// Emission is recorded at the frame's own timestamp: the
			// instant its sender put it on air.
			o.RecordEmission(sim.At(ev.Frame.Timestamp), ev.Src, ev.Dst, ev.Frame, ev.Delay, ev.LevelDB)
		case *obs.TxBegin:
			o.RecordTx(now, ev.Node, ev.Dur)
		case *obs.FrameRx:
			o.RecordReception(now, ev.Node, ev.Frame)
		case *obs.FrameLoss:
			o.RecordLoss(now, ev.Node, ev.Frame, phy.LossReason(ev.ReasonCode))
		}
	})
	return o
}

// TestEquation1Invariant replays every claimed reception of a full run
// against channel-level ground truth: no frame may be decoded while
// its receiver transmits or while a comparable-power signal overlaps
// it (the paper's Equation (1)).
func TestEquation1Invariant(t *testing.T) {
	for _, p := range experiment.Protocols {
		p := p
		t.Run(string(p), func(t *testing.T) {
			cfg := experiment.Default(p)
			cfg.SimTime = 150 * time.Second
			cfg.OfferedLoadKbps = 0.8 // heavy contention exercises the edge cases
			o := attachOracle(&cfg)
			if _, err := experiment.Run(cfg); err != nil {
				t.Fatal(err)
			}
			if o.Receptions() == 0 {
				t.Fatal("oracle saw no receptions")
			}
			if v := o.Verify(); len(v) != 0 {
				for i, viol := range v {
					if i >= 5 {
						t.Errorf("... and %d more", len(v)-5)
						break
					}
					t.Error(viol)
				}
			}
		})
	}
}

// TestExtraNeverCorruptsNegotiatedExchanges verifies the paper's §4.2
// safety property at network scale: in a static deployment (exact
// delay tables) no negotiated CTS/Data/Ack lost at its destination may
// overlap an extra-communication frame.
func TestExtraNeverCorruptsNegotiatedExchanges(t *testing.T) {
	cfg := experiment.Default(experiment.ProtocolEWMAC)
	cfg.SimTime = 200 * time.Second
	cfg.OfferedLoadKbps = 0.8
	cfg.MobileFraction = 0 // perfect delay knowledge
	o := attachOracle(&cfg)
	res, err := experiment.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.MAC.ExtraAttempts == 0 {
		t.Skip("no extra communications occurred; property not exercised on this seed")
	}
	if v := o.VerifyExtraSafety(); len(v) != 0 {
		for _, viol := range v {
			t.Error(viol)
		}
	}
}

// TestStreamingMatchesBatchOnRealRun runs one contended scenario per
// protocol with both oracles attached — the batch reference through
// Observe.Recorder, the streaming one through Observe.Verify — and
// requires the same verdict and the same ground-truth coverage from
// both.
func TestStreamingMatchesBatchOnRealRun(t *testing.T) {
	for _, p := range allProtocols {
		p := p
		t.Run(string(p), func(t *testing.T) {
			cfg := experiment.Default(p)
			cfg.SimTime = 120 * time.Second
			cfg.OfferedLoadKbps = 0.8
			cfg.Observe = &experiment.Observe{Verify: true}
			o := attachOracle(&cfg)
			res, err := experiment.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			st := res.Conformance
			if st == nil {
				t.Fatal("Result.Conformance is nil")
			}
			if st.Receptions == 0 {
				t.Fatal("no receptions checked; agreement not exercised")
			}
			if batch := len(o.Verify()) + len(o.VerifyExtraSafety()); uint64(batch) != st.Violations {
				t.Errorf("oracles disagree: batch found %d violations, streaming %d (%+v)",
					batch, st.Violations, st.ByReason)
			}
			if o.Receptions() != int(st.Receptions) || o.Losses() != int(st.Losses) {
				t.Errorf("ground-truth coverage differs: batch %d rx / %d loss, streaming %d / %d",
					o.Receptions(), o.Losses(), st.Receptions, st.Losses)
			}
		})
	}
}
