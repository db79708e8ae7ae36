package saloha_test

import (
	"testing"
	"time"

	"ewmac/internal/acoustic"
	"ewmac/internal/experiment"
	"ewmac/internal/obs"
	"ewmac/internal/packet"
	"ewmac/internal/sim"
)

func TestALOHADeliversAtLightLoad(t *testing.T) {
	cfg := experiment.Default(experiment.ProtocolSALOHA)
	cfg.SimTime = 150 * time.Second
	cfg.OfferedLoadKbps = 0.1
	res, err := experiment.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Summary
	if s.MAC.DeliveredPackets == 0 {
		t.Fatal("ALOHA delivered nothing at trivial load")
	}
	if s.DeliveryRatio < 0.5 {
		t.Errorf("delivery ratio %.2f at 0.1 kbps, want most packets through", s.DeliveryRatio)
	}
}

func TestALOHAOutperformsHandshakesAtShortPackets(t *testing.T) {
	// A classic long-propagation-delay result (the paper's own ref [6],
	// Chitre, Motani & Shahabudeen: "Throughput of Networks with Large
	// Propagation Delays"): when a data packet occupies a small fraction
	// of a τmax-guarded slot, RTS/CTS reservations cost more than the
	// collisions they prevent, and plain slotted ALOHA wins. Our
	// simulator reproduces that phenomenon — which is precisely the
	// inefficiency EW-MAC attacks from the opposite direction, by
	// keeping the handshake and refilling its waiting windows.
	load := 0.8
	thr := map[experiment.Protocol]float64{}
	for _, p := range []experiment.Protocol{experiment.ProtocolSALOHA, experiment.ProtocolSFAMA} {
		cfg := experiment.Default(p)
		cfg.SimTime = 240 * time.Second
		cfg.OfferedLoadKbps = load
		sum, err := experiment.RunMean(cfg, []int64{1, 2})
		if err != nil {
			t.Fatal(err)
		}
		thr[p] = sum.ThroughputKbps
	}
	t.Logf("at %.1f kbps: S-ALOHA %.4f vs S-FAMA %.4f", load, thr[experiment.ProtocolSALOHA], thr[experiment.ProtocolSFAMA])
	if thr[experiment.ProtocolSALOHA] <= thr[experiment.ProtocolSFAMA] {
		t.Errorf("expected the ref-[6] phenomenon (ALOHA %v above S-FAMA %v for short packets)",
			thr[experiment.ProtocolSALOHA], thr[experiment.ProtocolSFAMA])
	}
}

func TestALOHARetransmitsOnSilence(t *testing.T) {
	cfg := experiment.Default(experiment.ProtocolSALOHA)
	cfg.SimTime = 150 * time.Second
	cfg.OfferedLoadKbps = 0.8 // collisions guaranteed
	res, err := experiment.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.MAC.Retransmissions == 0 {
		t.Error("saturated ALOHA never retransmitted")
	}
}

// TestRetryExhaustionCountsOwnAttempts: a packet is dropped as
// retry-exhausted only after exactly MaxRetries data transmissions of
// its own. The retry count must reset when the previous head is
// acknowledged, or a fresh packet inherits the failures of the one
// before it and is abandoned early.
func TestRetryExhaustionCountsOwnAttempts(t *testing.T) {
	const maxRetries = 3
	cfg := experiment.Default(experiment.ProtocolSALOHA)
	cfg.SimTime = 200 * time.Second
	cfg.OfferedLoadKbps = 0.3
	cfg.Seed = 1
	cfg.MaxRetries = maxRetries
	cfg.PER = acoustic.UniformLossPER{LossProb: 0.5}
	type key struct {
		node, origin packet.NodeID
		seq          uint32
	}
	sent := map[key]int{}
	drops := 0
	cfg.Observe = &experiment.Observe{Recorder: obs.RecorderFunc(func(_ sim.Time, e obs.Event) {
		switch ev := e.(type) {
		case *obs.TxBegin:
			if f := ev.Frame; f.Kind == packet.KindData {
				sent[key{ev.Node, f.Origin, f.Seq}]++
			}
		case *obs.PacketDrop:
			if ev.Reason != obs.DropRetryExhausted {
				return
			}
			drops++
			if n := sent[key{ev.Node, ev.Origin, ev.Seq}]; n != maxRetries {
				t.Errorf("node %v dropped %v/%d as retry-exhausted after %d data transmissions, want %d",
					ev.Node, ev.Origin, ev.Seq, n, maxRetries)
			}
		}
	})}
	if _, err := experiment.Run(cfg); err != nil {
		t.Fatal(err)
	}
	if drops == 0 {
		t.Fatal("no retry-exhausted drops: the scenario no longer exercises the retry limit")
	}
}
