package phy

import (
	"errors"
	"testing"
	"time"

	"ewmac/internal/acoustic"
	"ewmac/internal/energy"
	"ewmac/internal/packet"
	"ewmac/internal/sim"
)

// fakeMedium records broadcasts and optionally loops them back to a set
// of peer modems with fixed delay/level, standing in for the channel.
type fakeMedium struct {
	eng    *sim.Engine
	sent   []*packet.Frame
	peers  []*Modem
	delay  time.Duration
	level  float64
	usable bool
}

func (fm *fakeMedium) Broadcast(src packet.NodeID, f *packet.Frame, dur time.Duration) error {
	fm.sent = append(fm.sent, f)
	for _, p := range fm.peers {
		if p.ID() == src {
			continue
		}
		rx := p
		// Like the channel, hand every peer the transmitted frame.
		fm.eng.ScheduleIn(fm.delay, sim.PriorityPHY, func() {
			rx.BeginArrival(f, fm.level, dur, fm.usable)
		})
	}
	return nil
}

// recorder is a Listener capturing events.
type recorder struct {
	received []*packet.Frame
	lost     []LossReason
	txDone   []*packet.Frame
}

func (r *recorder) OnFrameReceived(f *packet.Frame)            { r.received = append(r.received, f) }
func (r *recorder) OnFrameLost(_ *packet.Frame, rs LossReason) { r.lost = append(r.lost, rs) }
func (r *recorder) OnTxDone(f *packet.Frame)                   { r.txDone = append(r.txDone, f) }

func newTestModem(t *testing.T, eng *sim.Engine, id packet.NodeID, med Medium) (*Modem, *recorder) {
	t.Helper()
	rec := &recorder{}
	m, err := NewModem(Config{
		ID:       id,
		Engine:   eng,
		Model:    acoustic.DefaultModel(),
		Medium:   med,
		Listener: rec,
		Energy:   energy.DefaultProfile(),
	})
	if err != nil {
		t.Fatalf("NewModem: %v", err)
	}
	return m, rec
}

func ctrlFrame(kind packet.Kind, src, dst packet.NodeID) *packet.Frame {
	return &packet.Frame{Kind: kind, Src: src, Dst: dst}
}

func TestNewModemValidation(t *testing.T) {
	eng := sim.NewEngine(1)
	med := &fakeMedium{eng: eng}
	base := Config{ID: 1, Engine: eng, Model: acoustic.DefaultModel(), Medium: med, Energy: energy.DefaultProfile()}
	cases := []struct {
		name string
		edit func(*Config)
	}{
		{"nobody id", func(c *Config) { c.ID = packet.Nobody }},
		{"broadcast id", func(c *Config) { c.ID = packet.Broadcast }},
		{"nil engine", func(c *Config) { c.Engine = nil }},
		{"nil model", func(c *Config) { c.Model = nil }},
		{"nil medium", func(c *Config) { c.Medium = nil }},
		{"bad energy", func(c *Config) { c.Energy = energy.Profile{TxW: -1} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.edit(&cfg)
			if _, err := NewModem(cfg); err == nil {
				t.Error("NewModem accepted invalid config")
			}
		})
	}
	if _, err := NewModem(base); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestTransmitDeliversToPeer(t *testing.T) {
	eng := sim.NewEngine(1)
	med := &fakeMedium{eng: eng, delay: 500 * time.Millisecond, level: 140, usable: true}
	a, _ := newTestModem(t, eng, 1, med)
	b, recB := newTestModem(t, eng, 2, med)
	med.peers = []*Modem{a, b}

	f := ctrlFrame(packet.KindRTS, 1, 2)
	if err := a.Transmit(f); err != nil {
		t.Fatal(err)
	}
	if !a.Transmitting() {
		t.Error("modem not in tx state during transmission")
	}
	eng.Run()
	if len(recB.received) != 1 || recB.received[0].Kind != packet.KindRTS {
		t.Fatalf("peer received %v, want one RTS", recB.received)
	}
	if a.Transmitting() {
		t.Error("modem stuck in tx state")
	}
	if got := a.Stats().FramesTx; got != 1 {
		t.Errorf("FramesTx = %d", got)
	}
	if got := b.Stats().FramesRx; got != 1 {
		t.Errorf("FramesRx = %d", got)
	}
}

func TestTransmitWhileBusy(t *testing.T) {
	eng := sim.NewEngine(1)
	med := &fakeMedium{eng: eng}
	a, rec := newTestModem(t, eng, 1, med)
	med.peers = []*Modem{a}
	if err := a.Transmit(ctrlFrame(packet.KindRTS, 1, 2)); err != nil {
		t.Fatal(err)
	}
	err := a.Transmit(ctrlFrame(packet.KindCTS, 1, 2))
	if !errors.Is(err, ErrBusy) {
		t.Fatalf("second transmit error = %v, want ErrBusy", err)
	}
	eng.Run()
	if len(rec.txDone) != 1 {
		t.Errorf("txDone count = %d, want 1", len(rec.txDone))
	}
}

func TestTransmitInvalidFrame(t *testing.T) {
	eng := sim.NewEngine(1)
	med := &fakeMedium{eng: eng}
	a, _ := newTestModem(t, eng, 1, med)
	if err := a.Transmit(&packet.Frame{Kind: packet.KindRTS}); err == nil {
		t.Error("invalid frame accepted")
	}
}

func TestCollisionLosesBothFrames(t *testing.T) {
	eng := sim.NewEngine(1)
	med := &fakeMedium{eng: eng}
	c, rec := newTestModem(t, eng, 3, med)

	// Two equal-power arrivals overlapping completely.
	f1 := ctrlFrame(packet.KindRTS, 1, 3)
	f2 := ctrlFrame(packet.KindRTS, 2, 3)
	dur := 100 * time.Millisecond
	eng.ScheduleIn(0, sim.PriorityPHY, func() {
		c.BeginArrival(f1, 130, dur, true)
		c.BeginArrival(f2, 130, dur, true)
	})
	eng.Run()
	if len(rec.received) != 0 {
		t.Fatalf("received %d frames from a symmetric collision, want 0", len(rec.received))
	}
	if len(rec.lost) != 2 || rec.lost[0] != LossCollision || rec.lost[1] != LossCollision {
		t.Fatalf("lost = %v, want two collisions", rec.lost)
	}
	if c.Stats().Collisions != 2 {
		t.Errorf("Collisions = %d", c.Stats().Collisions)
	}
}

func TestCaptureStrongFrameSurvivesWeakInterference(t *testing.T) {
	eng := sim.NewEngine(1)
	med := &fakeMedium{eng: eng}
	c, rec := newTestModem(t, eng, 3, med)
	dur := 100 * time.Millisecond
	eng.ScheduleIn(0, sim.PriorityPHY, func() {
		c.BeginArrival(ctrlFrame(packet.KindRTS, 1, 3), 150, dur, true) // strong
		c.BeginArrival(ctrlFrame(packet.KindRTS, 2, 3), 120, dur, true) // 30 dB weaker
	})
	eng.Run()
	if len(rec.received) != 1 || rec.received[0].Src != 1 {
		t.Fatalf("received = %v, want only the strong frame", rec.received)
	}
	if len(rec.lost) != 1 || rec.lost[0] != LossCollision {
		t.Fatalf("lost = %v, want weak frame collided", rec.lost)
	}
}

func TestPartialOverlapStillCollides(t *testing.T) {
	eng := sim.NewEngine(1)
	med := &fakeMedium{eng: eng}
	c, rec := newTestModem(t, eng, 3, med)
	dur := 100 * time.Millisecond
	eng.ScheduleIn(0, sim.PriorityPHY, func() {
		c.BeginArrival(ctrlFrame(packet.KindRTS, 1, 3), 130, dur, true)
	})
	// Second arrival starts halfway through the first.
	eng.ScheduleIn(50*time.Millisecond, sim.PriorityPHY, func() {
		c.BeginArrival(ctrlFrame(packet.KindRTS, 2, 3), 130, dur, true)
	})
	eng.Run()
	if len(rec.received) != 0 {
		t.Fatalf("partial overlap decoded %d frames, want 0", len(rec.received))
	}
}

func TestNonOverlappingFramesBothReceived(t *testing.T) {
	eng := sim.NewEngine(1)
	med := &fakeMedium{eng: eng}
	c, rec := newTestModem(t, eng, 3, med)
	dur := 100 * time.Millisecond
	eng.ScheduleIn(0, sim.PriorityPHY, func() {
		c.BeginArrival(ctrlFrame(packet.KindRTS, 1, 3), 130, dur, true)
	})
	eng.ScheduleIn(200*time.Millisecond, sim.PriorityPHY, func() {
		c.BeginArrival(ctrlFrame(packet.KindRTS, 2, 3), 130, dur, true)
	})
	eng.Run()
	if len(rec.received) != 2 {
		t.Fatalf("received %d, want 2", len(rec.received))
	}
}

func TestHalfDuplexTxCorruptsArrival(t *testing.T) {
	eng := sim.NewEngine(1)
	med := &fakeMedium{eng: eng}
	c, rec := newTestModem(t, eng, 3, med)
	dur := 200 * time.Millisecond
	eng.ScheduleIn(0, sim.PriorityPHY, func() {
		c.BeginArrival(ctrlFrame(packet.KindData, 1, 3), 130, dur, true)
	})
	// Start transmitting while the arrival is in the air.
	eng.ScheduleIn(50*time.Millisecond, sim.PriorityMAC, func() {
		if err := c.Transmit(ctrlFrame(packet.KindRTS, 3, 2)); err != nil {
			t.Errorf("transmit: %v", err)
		}
	})
	eng.Run()
	if len(rec.received) != 0 {
		t.Fatal("frame decoded despite half-duplex self-blocking")
	}
	if len(rec.lost) != 1 || rec.lost[0] != LossTxDuringRx {
		t.Fatalf("lost = %v, want tx-during-rx", rec.lost)
	}
}

func TestArrivalDuringTxCorrupted(t *testing.T) {
	eng := sim.NewEngine(1)
	med := &fakeMedium{eng: eng}
	c, rec := newTestModem(t, eng, 3, med)
	// Long transmission.
	big := &packet.Frame{Kind: packet.KindData, Src: 3, Dst: 2, DataBits: 4096}
	eng.ScheduleIn(0, sim.PriorityMAC, func() {
		if err := c.Transmit(big); err != nil {
			t.Errorf("transmit: %v", err)
		}
	})
	eng.ScheduleIn(10*time.Millisecond, sim.PriorityPHY, func() {
		c.BeginArrival(ctrlFrame(packet.KindRTS, 1, 3), 130, 50*time.Millisecond, true)
	})
	eng.Run()
	if len(rec.received) != 0 {
		t.Fatal("arrival during own tx decoded")
	}
	if len(rec.lost) != 1 || rec.lost[0] != LossTxDuringRx {
		t.Fatalf("lost = %v, want tx-during-rx", rec.lost)
	}
}

func TestUnsyncableArrivalIsSilentInterference(t *testing.T) {
	eng := sim.NewEngine(1)
	med := &fakeMedium{eng: eng}
	c, rec := newTestModem(t, eng, 3, med)
	dur := 100 * time.Millisecond
	eng.ScheduleIn(0, sim.PriorityPHY, func() {
		c.BeginArrival(ctrlFrame(packet.KindRTS, 1, 3), 130, dur, true)
		c.BeginArrival(ctrlFrame(packet.KindRTS, 2, 3), 130, dur, false) // out of range
	})
	eng.Run()
	// The syncable frame is jammed by out-of-range energy; the
	// out-of-range frame itself is never reported.
	if len(rec.received) != 0 {
		t.Fatal("jammed frame decoded")
	}
	if len(rec.lost) != 1 {
		t.Fatalf("lost = %v, want only the syncable frame reported", rec.lost)
	}
}

func TestEnergyStatesFollowActivity(t *testing.T) {
	eng := sim.NewEngine(1)
	med := &fakeMedium{eng: eng}
	c, _ := newTestModem(t, eng, 3, med)
	dur := 100 * time.Millisecond
	eng.ScheduleIn(time.Second, sim.PriorityPHY, func() {
		c.BeginArrival(ctrlFrame(packet.KindData, 1, 3), 130, dur, true)
	})
	eng.Run()
	eng.RunUntil(sim.At(2 * time.Second))
	b, err := c.Energy()
	if err != nil {
		t.Fatal(err)
	}
	if b.RxJ <= 0 {
		t.Error("no rx energy accrued")
	}
	if b.IdleJ <= 0 {
		t.Error("no idle energy accrued")
	}
	wantRx := energy.DefaultProfile().RxW * dur.Seconds()
	if diff := b.RxJ - wantRx; diff < -1e-9 || diff > 1e-9 {
		t.Errorf("RxJ = %v, want %v", b.RxJ, wantRx)
	}
}

func TestStatsSplitControlAndData(t *testing.T) {
	eng := sim.NewEngine(1)
	med := &fakeMedium{eng: eng}
	a, _ := newTestModem(t, eng, 1, med)
	ctl := ctrlFrame(packet.KindRTS, 1, 2)
	ctl.Neighbors = []packet.NeighborInfo{{ID: 5, Delay: time.Second}}
	if err := a.Transmit(ctl); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	data := &packet.Frame{Kind: packet.KindEXData, Src: 1, Dst: 2, DataBits: 1024}
	if err := a.Transmit(data); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	s := a.Stats()
	if s.ControlBitsTx != uint64(packet.ControlBits+packet.NeighborInfoBits) {
		t.Errorf("ControlBitsTx = %d", s.ControlBitsTx)
	}
	if s.DataBitsTx != uint64(packet.DataHeaderBits+1024) {
		t.Errorf("DataBitsTx = %d", s.DataBitsTx)
	}
	if s.PiggybackBitsTx != packet.NeighborInfoBits {
		t.Errorf("PiggybackBitsTx = %d", s.PiggybackBitsTx)
	}
	if s.ExtraFramesTx != 1 {
		t.Errorf("ExtraFramesTx = %d, want 1 (the EXData)", s.ExtraFramesTx)
	}
}

// carrierSensed reports whether any signal energy (decodable or not) is
// on the channel at m.
func carrierSensed(m *Modem) bool { return len(m.arrivals) > 0 || m.transmitting }

func TestCarrierSense(t *testing.T) {
	eng := sim.NewEngine(1)
	med := &fakeMedium{eng: eng}
	c, _ := newTestModem(t, eng, 3, med)
	if carrierSensed(c) {
		t.Error("carrier sensed on quiet channel")
	}
	dur := 100 * time.Millisecond
	eng.ScheduleIn(0, sim.PriorityPHY, func() {
		c.BeginArrival(ctrlFrame(packet.KindRTS, 1, 3), 130, dur, true)
	})
	eng.ScheduleIn(50*time.Millisecond, sim.PriorityMAC, func() {
		if !carrierSensed(c) {
			t.Error("carrier not sensed mid-arrival")
		}
		if !c.Receiving() {
			t.Error("Receiving false mid-arrival")
		}
	})
	eng.Run()
	if carrierSensed(c) {
		t.Error("carrier sensed after arrival ended")
	}
}

func TestLossReasonString(t *testing.T) {
	if LossCollision.String() != "collision" ||
		LossTxDuringRx.String() != "tx-during-rx" ||
		LossChannel.String() != "channel" {
		t.Error("LossReason strings changed")
	}
}

func TestModemDown(t *testing.T) {
	eng := sim.NewEngine(1)
	med := &fakeMedium{eng: eng, delay: 500 * time.Millisecond, level: 140, usable: true}
	a, _ := newTestModem(t, eng, 1, med)
	b, recB := newTestModem(t, eng, 2, med)
	med.peers = []*Modem{a, b}

	b.SetDown(true)
	if !b.Down() {
		t.Fatal("Down() false after SetDown(true)")
	}
	if err := b.Transmit(ctrlFrame(packet.KindRTS, 2, 1)); !errors.Is(err, ErrDown) {
		t.Fatalf("Transmit while down = %v, want ErrDown", err)
	}
	// A frame arriving at a down modem is never decoded — not even
	// reported as a loss (the receiver missed the preamble entirely).
	if err := a.Transmit(ctrlFrame(packet.KindRTS, 1, 2)); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if len(recB.received) != 0 || len(recB.lost) != 0 {
		t.Fatalf("down modem saw received=%d lost=%d, want nothing", len(recB.received), len(recB.lost))
	}

	// Back up: traffic flows again.
	b.SetDown(false)
	if err := a.Transmit(ctrlFrame(packet.KindCTS, 1, 2)); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if len(recB.received) != 1 {
		t.Fatalf("recovered modem received %d frames, want 1", len(recB.received))
	}
}

func TestModemDownKillsInFlightArrival(t *testing.T) {
	eng := sim.NewEngine(1)
	med := &fakeMedium{eng: eng, delay: 500 * time.Millisecond, level: 140, usable: true}
	a, _ := newTestModem(t, eng, 1, med)
	b, recB := newTestModem(t, eng, 2, med)
	med.peers = []*Modem{a, b}

	if err := a.Transmit(ctrlFrame(packet.KindRTS, 1, 2)); err != nil {
		t.Fatal(err)
	}
	// Crash b while the frame is propagating/arriving.
	eng.ScheduleAt(sim.At(505*time.Millisecond), sim.PriorityMAC, func() {
		b.SetDown(true)
	})
	eng.Run()
	if len(recB.received) != 0 {
		t.Fatalf("down modem decoded %d frames, want 0", len(recB.received))
	}
}

func TestInjectInterference(t *testing.T) {
	eng := sim.NewEngine(1)
	med := &fakeMedium{eng: eng, delay: 500 * time.Millisecond, level: 140, usable: true}
	a, _ := newTestModem(t, eng, 1, med)
	b, recB := newTestModem(t, eng, 2, med)
	med.peers = []*Modem{a, b}

	// Noise alone: carrier sensed, nothing decoded, no losses.
	b.InjectInterference(140, time.Second)
	if !carrierSensed(b) {
		t.Error("interference not carrier-sensed")
	}
	if b.Receiving() {
		t.Error("interference reported as decodable reception")
	}
	eng.Run()
	if carrierSensed(b) {
		t.Error("interference never cleared")
	}
	if len(recB.received) != 0 || len(recB.lost) != 0 {
		t.Fatalf("noise produced received=%d lost=%d events", len(recB.received), len(recB.lost))
	}

	// Noise at equal power with a real frame drives SINR to 0 dB,
	// below the default 10 dB threshold: the frame is a collision loss.
	if err := a.Transmit(ctrlFrame(packet.KindRTS, 1, 2)); err != nil {
		t.Fatal(err)
	}
	eng.ScheduleAt(eng.Now().Add(505*time.Millisecond), sim.PriorityPHY, func() {
		b.InjectInterference(med.level, 200*time.Millisecond)
	})
	eng.Run()
	if len(recB.received) != 0 {
		t.Fatalf("frame decoded through equal-power noise")
	}
	if len(recB.lost) != 1 || recB.lost[0] != LossCollision {
		t.Fatalf("lost = %v, want one collision", recB.lost)
	}
}
