package mac

import (
	"testing"
	"time"

	"ewmac/internal/acoustic"
	"ewmac/internal/energy"
	"ewmac/internal/packet"
	"ewmac/internal/phy"
	"ewmac/internal/sim"
)

// sinkMedium swallows transmissions.
type sinkMedium struct{}

func (sinkMedium) Broadcast(packet.NodeID, *packet.Frame, time.Duration) error { return nil }

func testBase(t *testing.T) (*Base, *sim.Engine) {
	t.Helper()
	eng := sim.NewEngine(1)
	model := acoustic.DefaultModel()
	modem, err := phy.NewModem(phy.Config{
		ID:     1,
		Engine: eng,
		Model:  model,
		Medium: sinkMedium{},
		Energy: energy.DefaultProfile(),
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBase(Config{
		ID:      1,
		Engine:  eng,
		Modem:   modem,
		Slots:   paperSlots(),
		BitRate: model.BitRate(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return b, eng
}

func TestBaseConfigValidation(t *testing.T) {
	eng := sim.NewEngine(1)
	model := acoustic.DefaultModel()
	modem, err := phy.NewModem(phy.Config{ID: 1, Engine: eng, Model: model, Medium: sinkMedium{}, Energy: energy.DefaultProfile()})
	if err != nil {
		t.Fatal(err)
	}
	good := Config{ID: 1, Engine: eng, Modem: modem, Slots: paperSlots(), BitRate: 12000}
	cases := []struct {
		name string
		edit func(*Config)
	}{
		{"nobody", func(c *Config) { c.ID = packet.Nobody }},
		{"broadcast", func(c *Config) { c.ID = packet.Broadcast }},
		{"nil engine", func(c *Config) { c.Engine = nil }},
		{"nil modem", func(c *Config) { c.Modem = nil }},
		{"zero rate", func(c *Config) { c.BitRate = 0 }},
		{"bad slots", func(c *Config) { c.Slots = SlotConfig{} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := good
			tc.edit(&cfg)
			if _, err := NewBase(cfg); err == nil {
				t.Error("NewBase accepted invalid config")
			}
		})
	}
}

func TestEnqueueAssignsSequenceAndOrigin(t *testing.T) {
	b, _ := testBase(t)
	b.Enqueue(AppPacket{Dst: 9, Bits: 1024})
	b.Enqueue(AppPacket{Dst: 9, Bits: 1024})
	items := b.Queue().Items()
	if len(items) != 2 {
		t.Fatalf("queue len %d", len(items))
	}
	if items[0].Origin != 1 || items[1].Origin != 1 {
		t.Error("origin not defaulted to own ID")
	}
	if items[0].Seq == 0 || items[0].Seq == items[1].Seq {
		t.Error("sequence numbers not unique")
	}
	if b.Counters().Generated != 2 {
		t.Errorf("Generated = %d", b.Counters().Generated)
	}
}

func TestHoldSuspendsContention(t *testing.T) {
	b, eng := testBase(t)
	b.Start()
	b.Enqueue(AppPacket{Dst: 9, Bits: 1024})
	b.SetHold(sim.At(50 * time.Second))
	eng.RunUntil(sim.At(20 * time.Second))
	if b.Counters().RTSSent != 0 {
		t.Fatal("held node transmitted an RTS")
	}
	if !b.Held() {
		t.Fatal("Held() false before the deadline")
	}
	eng.RunUntil(sim.At(60 * time.Second))
	if b.Counters().RTSSent == 0 {
		t.Fatal("node never contended after the hold expired")
	}
	if b.Held() {
		t.Error("Held() true after the deadline")
	}
}

func TestContentionTimesOutAndBacksOff(t *testing.T) {
	b, eng := testBase(t)
	b.Start()
	b.Enqueue(AppPacket{Dst: 9, Bits: 1024})
	// Nothing ever answers (sink medium): every round fails.
	eng.RunUntil(sim.At(120 * time.Second))
	c := b.Counters()
	if c.RTSSent < 2 {
		t.Fatalf("RTSSent = %d, want retries", c.RTSSent)
	}
	if c.ContentionFailures != c.RTSSent {
		t.Errorf("failures %d != attempts %d with a dead channel", c.ContentionFailures, c.RTSSent)
	}
	if b.QueueLen() != 1 {
		t.Error("packet dropped without MaxRetries")
	}
}

func TestMaxRetriesDropsPacket(t *testing.T) {
	eng := sim.NewEngine(1)
	model := acoustic.DefaultModel()
	modem, err := phy.NewModem(phy.Config{ID: 1, Engine: eng, Model: model, Medium: sinkMedium{}, Energy: energy.DefaultProfile()})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBase(Config{
		ID: 1, Engine: eng, Modem: modem, Slots: paperSlots(),
		BitRate: model.BitRate(), MaxRetries: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	b.Start()
	b.Enqueue(AppPacket{Dst: 9, Bits: 1024})
	eng.RunUntil(sim.At(300 * time.Second))
	if b.QueueLen() != 0 {
		t.Error("packet not dropped after MaxRetries")
	}
	if got := b.Counters().RTSSent; got != 3 {
		t.Errorf("RTSSent = %d, want exactly MaxRetries", got)
	}
}

func TestPrimaryFreeAtIdleIsNow(t *testing.T) {
	b, eng := testBase(t)
	eng.RunUntil(sim.At(5 * time.Second))
	if got := b.PrimaryFreeAt(); got != eng.Now() {
		t.Errorf("PrimaryFreeAt idle = %v, want now", got)
	}
	if _, busy := b.NextBusyAt(); busy {
		t.Error("idle node reports a busy time")
	}
}

func TestPrimaryFreeAtWaitCTS(t *testing.T) {
	b, eng := testBase(t)
	b.Start()
	b.Enqueue(AppPacket{Dst: 9, Bits: 2048})
	// Run until the RTS goes out (first slot).
	for b.Role() != RoleWaitCTS {
		if eng.Now().After(sim.At(30 * time.Second)) {
			t.Fatal("node never entered WaitCTS")
		}
		eng.RunUntil(eng.Now().Add(100 * time.Millisecond))
	}
	free := b.PrimaryFreeAt()
	if !free.After(eng.Now()) {
		t.Error("PrimaryFreeAt in WaitCTS should budget through the exchange")
	}
	busy, ok := b.NextBusyAt()
	if !ok || busy.Before(eng.Now()) {
		t.Errorf("NextBusyAt = %v, %v", busy, ok)
	}
	if !free.After(busy) {
		t.Error("exchange end precedes its own next event")
	}
}

func TestDeliverDataDedupes(t *testing.T) {
	b, _ := testBase(t)
	f := &packet.Frame{Kind: packet.KindEXData, Src: 2, Dst: 1, Seq: 7, Origin: 2, DataBits: 2048}
	b.DeliverData(f, true)
	b.DeliverData(f, true)
	c := b.Counters()
	if c.DeliveredPackets != 1 || c.DuplicatesRx != 1 {
		t.Errorf("delivered=%d dup=%d, want 1/1", c.DeliveredPackets, c.DuplicatesRx)
	}
	if c.ExtraDeliveredPackets != 1 {
		t.Errorf("extra delivered = %d", c.ExtraDeliveredPackets)
	}
	if c.DeliveredBits != 2048 {
		t.Errorf("delivered bits = %d", c.DeliveredBits)
	}
}

func TestCompleteHeadAndBySeq(t *testing.T) {
	b, _ := testBase(t)
	b.Enqueue(AppPacket{Dst: 9, Bits: 1, Seq: 11, Origin: 1})
	b.Enqueue(AppPacket{Dst: 8, Bits: 1, Seq: 12, Origin: 1})
	if b.CompleteHead(1, 12) {
		t.Error("CompleteHead matched a non-head packet")
	}
	if !b.CompleteHead(1, 11) {
		t.Error("CompleteHead failed on the head")
	}
	if !b.CompleteBySeq(1, 12) {
		t.Error("CompleteBySeq failed")
	}
	if b.CompleteBySeq(1, 99) {
		t.Error("CompleteBySeq matched a missing packet")
	}
	if b.QueueLen() != 0 {
		t.Error("queue not drained")
	}
	if b.Counters().AckedPackets != 2 {
		t.Errorf("AckedPackets = %d", b.Counters().AckedPackets)
	}
}

func TestRoleString(t *testing.T) {
	want := map[Role]string{
		RoleIdle: "idle", RoleWaitCTS: "wait-cts", RoleSendData: "send-data",
		RoleWaitAck: "wait-ack", RoleWaitData: "wait-data",
	}
	for r, s := range want {
		if r.String() != s {
			t.Errorf("%d.String() = %q, want %q", r, r.String(), s)
		}
	}
}

// TestStartWithoutHooksRunsDefaults: a Base nobody gave hooks runs its
// own S-FAMA defaults — it contends, answers the first RTS, and
// piggybacks nothing.
func TestStartWithoutHooksRunsDefaults(t *testing.T) {
	b, eng := testBase(t)
	b.Start()
	b.Enqueue(AppPacket{Dst: 9, Bits: 1024})
	eng.RunUntil(sim.At(10 * time.Second))
	if b.Counters().RTSSent == 0 {
		t.Error("default-hooked base never contended")
	}
	first := &packet.Frame{Kind: packet.KindRTS, Src: 2, RP: 0.1}
	second := &packet.Frame{Kind: packet.KindRTS, Src: 3, RP: 0.9}
	if w := b.PickWinner([]*packet.Frame{first, second}); w != first {
		t.Error("default PickWinner should answer the first RTS")
	}
	cts := b.NewFrame(packet.KindCTS, 2)
	cts.PairDelay = time.Second
	b.Piggyback(cts)
	if len(cts.Neighbors) != 0 {
		t.Error("default Piggyback attached neighbour state")
	}
}
