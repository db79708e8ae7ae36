package oracle

import (
	"testing"
	"time"

	"ewmac/internal/packet"
	"ewmac/internal/phy"
	"ewmac/internal/sim"
)

func dataFrame(src, dst packet.NodeID, seq uint32, ts time.Duration) *packet.Frame {
	return &packet.Frame{Kind: packet.KindData, Src: src, Dst: dst, Seq: seq, DataBits: 2048, Timestamp: ts}
}

func TestCleanReceptionVerifies(t *testing.T) {
	o := New(12000, 10)
	f := dataFrame(1, 3, 1, time.Second)
	o.RecordEmission(sim.At(time.Second), 1, 3, f, 400*time.Millisecond, 130)
	o.RecordReception(sim.At(time.Second+600*time.Millisecond), 3, f)
	if v := o.Verify(); len(v) != 0 {
		t.Errorf("clean reception flagged: %v", v)
	}
	if o.Receptions() != 1 || o.Losses() != 0 {
		t.Error("bookkeeping wrong")
	}
}

func TestHalfDuplexViolationDetected(t *testing.T) {
	o := New(12000, 10)
	rx := dataFrame(1, 3, 1, time.Second)
	tx := dataFrame(3, 2, 9, time.Second+100*time.Millisecond)
	o.RecordEmission(sim.At(time.Second), 1, 3, rx, 200*time.Millisecond, 130)
	// Node 3 transmits while rx is arriving at it.
	o.RecordEmission(sim.At(time.Second+100*time.Millisecond), 3, 2, tx, 300*time.Millisecond, 130)
	o.RecordTx(sim.At(time.Second+100*time.Millisecond), 3, tx.TxDuration(12000))
	o.RecordReception(sim.At(time.Second+380*time.Millisecond), 3, rx)
	if v := o.Verify(); len(v) == 0 {
		t.Error("half-duplex violation missed")
	}
}

// TestHalfDuplexCatchesSameKeyRetransmission: a frame sent again later
// with its original key (same sender, kind, seq and timestamp, as a
// stalled clock produces) is a second transmission all the same; if it
// overlaps a reception at its sender, the reception is a half-duplex
// violation.
func TestHalfDuplexCatchesSameKeyRetransmission(t *testing.T) {
	o := New(12000, 10)
	f := dataFrame(1, 2, 5, time.Second)
	dur := f.TxDuration(12000)
	o.RecordEmission(sim.At(time.Second), 1, 2, f, 300*time.Millisecond, 130)
	o.RecordTx(sim.At(time.Second), 1, dur)
	// The retransmission goes on air at 3 s but carries the 1 s key.
	o.RecordEmission(sim.At(time.Second), 1, 2, f, 300*time.Millisecond, 130)
	o.RecordTx(sim.At(3*time.Second), 1, dur)
	// Node 3's frame arrives at node 1 during that retransmission.
	in := dataFrame(3, 1, 8, 2900*time.Millisecond)
	o.RecordEmission(sim.At(2900*time.Millisecond), 3, 1, in, 200*time.Millisecond, 130)
	o.RecordReception(sim.At(3100*time.Millisecond).Add(dur), 1, in)
	if v := o.Verify(); len(v) == 0 {
		t.Error("reception during a same-key retransmission accepted")
	}
}

func TestCaptureMarginRespected(t *testing.T) {
	o := New(12000, 10)
	strong := dataFrame(1, 3, 1, time.Second)
	weak := dataFrame(2, 3, 2, time.Second)
	o.RecordEmission(sim.At(time.Second), 1, 3, strong, 100*time.Millisecond, 150)
	o.RecordEmission(sim.At(time.Second), 2, 3, weak, 100*time.Millisecond, 120) // 30 dB down
	o.RecordReception(sim.At(time.Second+300*time.Millisecond), 3, strong)
	if v := o.Verify(); len(v) != 0 {
		t.Errorf("capture of a 30 dB-stronger frame flagged: %v", v)
	}
	// The weak frame, if claimed received, is a violation.
	o.RecordReception(sim.At(time.Second+300*time.Millisecond), 3, weak)
	if v := o.Verify(); len(v) == 0 {
		t.Error("reception under 30 dB of interference accepted")
	}
}

func TestExtraSafetyScopesToNegotiatedKinds(t *testing.T) {
	o := New(12000, 10)
	// An RTS lost to an overlapping extra frame is explicitly exempt
	// (the paper does not protect RTS contention).
	rts := &packet.Frame{Kind: packet.KindRTS, Src: 1, Dst: 3, Seq: 1, Timestamp: time.Second}
	ex := &packet.Frame{Kind: packet.KindEXR, Src: 2, Dst: 3, Seq: 2, Timestamp: time.Second}
	o.RecordEmission(sim.At(time.Second), 1, 3, rts, 100*time.Millisecond, 130)
	o.RecordEmission(sim.At(time.Second), 2, 3, ex, 100*time.Millisecond, 130)
	o.RecordLoss(sim.At(time.Second+110*time.Millisecond), 3, rts, phy.LossCollision)
	if v := o.VerifyExtraSafety(); len(v) != 0 {
		t.Errorf("RTS loss wrongly counted as a guard breach: %v", v)
	}
	// Losses at bystanders (frame not addressed to the loser) are also
	// out of scope.
	data := dataFrame(1, 5, 7, 2*time.Second)
	o.RecordEmission(sim.At(2*time.Second), 1, 9, data, 100*time.Millisecond, 130)
	o.RecordLoss(sim.At(2*time.Second+300*time.Millisecond), 9, data, phy.LossCollision)
	if v := o.VerifyExtraSafety(); len(v) != 0 {
		t.Errorf("bystander loss wrongly counted: %v", v)
	}
}

func TestViolationStringsAreReadable(t *testing.T) {
	o := New(12000, 10)
	f := dataFrame(1, 3, 1, time.Second)
	o.RecordReception(sim.At(2*time.Second), 3, f)
	v := o.Verify()
	if len(v) != 1 {
		t.Fatalf("want one violation, got %v", v)
	}
	if v[0].String() == "" || v[0].Node != 3 {
		t.Errorf("violation rendering broken: %+v", v[0])
	}
}
