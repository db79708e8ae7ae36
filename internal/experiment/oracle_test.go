package experiment

import (
	"testing"
	"time"

	"ewmac/internal/acoustic"
	"ewmac/internal/obs"
	"ewmac/internal/oracle"
	"ewmac/internal/packet"
	"ewmac/internal/phy"
	"ewmac/internal/sim"
)

// attachOracle wires an Equation (1) oracle into a scenario through
// Observe.Recorder (keeping any other Observe settings).
func attachOracle(cfg *Config) *oracle.Oracle {
	model := acoustic.DefaultModel()
	o := oracle.New(model.BitRate(), model.SINRThresholdDB)
	if cfg.Observe == nil {
		cfg.Observe = &Observe{}
	}
	cfg.Observe.Recorder = oracleRecorder(o)
	return o
}

// oracleRecorder feeds the channel emissions, transmissions and PHY
// outcomes of a run to a batch oracle.
func oracleRecorder(o *oracle.Oracle) obs.Recorder {
	return obs.RecorderFunc(func(now sim.Time, e obs.Event) {
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
}

// TestEquation1Invariant replays every claimed reception of a full run
// against channel-level ground truth: no frame may be decoded while
// its receiver transmits or while a comparable-power signal overlaps
// it (the paper's Equation (1)).
func TestEquation1Invariant(t *testing.T) {
	for _, p := range Protocols {
		p := p
		t.Run(string(p), func(t *testing.T) {
			cfg := Default(p)
			cfg.SimTime = 150 * time.Second
			cfg.OfferedLoadKbps = 0.8 // heavy contention exercises the edge cases
			o := attachOracle(&cfg)
			if _, err := Run(cfg); err != nil {
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
	cfg := Default(ProtocolEWMAC)
	cfg.SimTime = 200 * time.Second
	cfg.OfferedLoadKbps = 0.8
	cfg.MobileFraction = 0 // perfect delay knowledge
	o := attachOracle(&cfg)
	res, err := Run(cfg)
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

// TestOracleDetectsViolations sanity-checks the oracle itself with a
// fabricated impossible trace, so a silent always-pass bug in the
// oracle cannot hide.
func TestOracleDetectsViolations(t *testing.T) {
	o := oracle.New(12000, 10)
	f1 := &packet.Frame{Kind: packet.KindData, Src: 1, Dst: 3, Seq: 1, DataBits: 2048, Timestamp: time.Second}
	f2 := &packet.Frame{Kind: packet.KindData, Src: 2, Dst: 3, Seq: 1, DataBits: 2048, Timestamp: time.Second}
	// Equal-power full overlap at node 3 — yet a reception is claimed.
	o.RecordEmission(sim.At(time.Second), 1, 3, f1, 100*time.Millisecond, 130)
	o.RecordEmission(sim.At(time.Second), 2, 3, f2, 100*time.Millisecond, 130)
	o.RecordReception(sim.At(time.Second+300*time.Millisecond), 3, f1)
	if v := o.Verify(); len(v) == 0 {
		t.Fatal("oracle accepted an impossible reception")
	}
	// A reception with no emission at all.
	o2 := oracle.New(12000, 10)
	o2.RecordReception(sim.At(time.Second), 3, f1)
	if v := o2.Verify(); len(v) == 0 {
		t.Fatal("oracle accepted a reception without emission")
	}
	// Extra-safety: a lost negotiated Data overlapping an EXData.
	o3 := oracle.New(12000, 10)
	ex := &packet.Frame{Kind: packet.KindEXData, Src: 4, Dst: 3, Seq: 9, DataBits: 2048, Timestamp: time.Second}
	o3.RecordEmission(sim.At(time.Second), 1, 3, f1, 100*time.Millisecond, 130)
	o3.RecordEmission(sim.At(time.Second), 4, 3, ex, 100*time.Millisecond, 130)
	o3.RecordLoss(sim.At(time.Second+300*time.Millisecond), 3, f1, phy.LossCollision)
	if v := o3.VerifyExtraSafety(); len(v) == 0 {
		t.Fatal("oracle missed an extra-frame guard breach")
	}
}
