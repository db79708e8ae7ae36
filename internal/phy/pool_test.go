package phy

import (
	"math"
	"reflect"
	"testing"
	"time"

	"ewmac/internal/acoustic"
	"ewmac/internal/energy"
	"ewmac/internal/packet"
	"ewmac/internal/sim"
)

// noiseModels spans the ambient-noise parameters the cache depends on.
func noiseModels() map[string]*acoustic.Model {
	calm := acoustic.DefaultModel()
	rough := acoustic.DefaultModel()
	rough.WindMS = 10
	rough.Shipping = 1
	narrow := acoustic.DefaultModel()
	narrow.BandwidthHz = 3000
	narrow.FreqKHz = 25
	return map[string]*acoustic.Model{"default": calm, "rough": rough, "narrow": narrow}
}

// TestCachedNoiseBitIdentical pins the modem's cached-noise SINR to the
// model's SINRDBFromLin under ==, not a tolerance: caching must not
// move a single decodability or collision decision.
func TestCachedNoiseBitIdentical(t *testing.T) {
	for name, model := range noiseModels() {
		eng := sim.NewEngine(1)
		m, err := NewModem(Config{
			ID: 1, Engine: eng, Model: model, Medium: &fakeMedium{eng: eng},
			Energy: energy.DefaultProfile(),
		})
		if err != nil {
			t.Fatal(err)
		}
		noise := model.NoiseLevelDB()
		interference := []float64{0, math.SmallestNonzeroFloat64, 1e-300, 1e-12}
		for db := noise - 40; db < noise+80; db += 1.7 {
			interference = append(interference, acoustic.DBToLin(db))
		}
		for level := noise - 20; level < noise+90; level += 0.173 {
			for _, in := range interference {
				got, want := m.sinrDB(level, in), model.SINRDBFromLin(level, in)
				if got != want {
					t.Fatalf("%s: sinrDB(%v, %v) = %v, model says %v", name, level, in, got, want)
				}
			}
			// The isolated-decodability decision BeginArrival takes.
			m.BeginArrival(ctrlFrame(packet.KindRTS, 2, 1), level, time.Millisecond, true)
			a := m.arrivals[len(m.arrivals)-1]
			if want := model.Decodable(model.SINRDBFromLin(level, 0)); a.decodable != want {
				t.Fatalf("%s: level %v decodable = %v, model says %v", name, level, a.decodable, want)
			}
			eng.Run()
		}
	}
}

// TestCachedNoiseCollisionDecisions drives overlapping arrivals through
// the real end-of-arrival path and checks each outcome against the
// model's decision for the interference the arrival actually saw.
func TestCachedNoiseCollisionDecisions(t *testing.T) {
	for name, model := range noiseModels() {
		eng := sim.NewEngine(1)
		rec := &recorder{}
		m, err := NewModem(Config{
			ID: 1, Engine: eng, Model: model, Medium: &fakeMedium{eng: eng},
			Listener: rec, Energy: energy.DefaultProfile(),
		})
		if err != nil {
			t.Fatal(err)
		}
		noise := model.NoiseLevelDB()
		for level := noise + model.SINRThresholdDB; level < noise+60; level += 0.61 {
			for gap := -2.0; gap < 25; gap += 0.93 {
				m.BeginArrival(ctrlFrame(packet.KindRTS, 2, 1), level, time.Millisecond, true)
				m.InjectInterference(level-gap, time.Millisecond)
				other := m.arrivals[0].maxOtherLin
				want := model.Decodable(model.SINRDBFromLin(level, other))
				rx, lost := len(rec.received), len(rec.lost)
				eng.Run()
				if got, gotLost := len(rec.received)-rx, len(rec.lost)-lost; got != btoi(want) || gotLost != btoi(!want) {
					t.Fatalf("%s: level %v gap %v: received %d lost %d, model says decodable=%v", name, level, gap, got, gotLost, want)
				}
			}
		}
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestRecycledArrivalStartsZeroed runs overlapping arrivals,
// collisions, a half-duplex corruption and a SetDown through one
// modem, then checks every pooled record is zeroed and that a fresh
// arrival drawn from the pool carries none of the old state.
func TestRecycledArrivalStartsZeroed(t *testing.T) {
	eng := sim.NewEngine(1)
	m, rec := newTestModem(t, eng, 3, &fakeMedium{eng: eng})
	dur := 100 * time.Millisecond
	eng.ScheduleIn(0, sim.PriorityPHY, func() {
		m.BeginArrival(ctrlFrame(packet.KindRTS, 1, 3), 130, dur, true)
		m.BeginArrival(ctrlFrame(packet.KindRTS, 2, 3), 130, dur, true)
		m.InjectInterference(125, dur)
	})
	eng.ScheduleIn(200*time.Millisecond, sim.PriorityPHY, func() {
		m.BeginArrival(ctrlFrame(packet.KindCTS, 4, 3), 140, dur, true)
		if err := m.Transmit(ctrlFrame(packet.KindRTS, 3, 4)); err != nil {
			t.Error(err)
		}
	})
	eng.ScheduleIn(400*time.Millisecond, sim.PriorityPHY, func() {
		m.BeginArrival(ctrlFrame(packet.KindCTS, 5, 3), 140, dur, true)
		m.SetDown(true)
	})
	eng.ScheduleIn(450*time.Millisecond, sim.PriorityPHY, func() { m.SetDown(false) })
	eng.Run()
	if len(rec.lost) != 3 || len(rec.received) != 0 {
		t.Fatalf("setup: lost=%v received=%d, want two collisions and one tx-during-rx", rec.lost, len(rec.received))
	}
	if len(m.arrivals) != 0 || len(m.free) != 3 {
		t.Fatalf("in air %d, pooled %d; want 0 and the 3 records of the widest overlap", len(m.arrivals), len(m.free))
	}
	pooled := make(map[*arrival]bool)
	for _, a := range m.free {
		pooled[a] = true
		rest := *a
		rest.fire = nil
		if a.fire == nil || !reflect.DeepEqual(rest, arrival{}) {
			t.Errorf("pooled record not zeroed: %+v", *a)
		}
	}

	f := ctrlFrame(packet.KindRTS, 6, 3)
	m.BeginArrival(f, 140, dur, true)
	a := m.arrivals[0]
	if !pooled[a] {
		t.Fatal("arrival not drawn from the free list")
	}
	if a.frame != f || a.maxOtherLin != 0 || a.corruptTx || !a.decodable {
		t.Fatalf("recycled arrival carries stale state: %+v", *a)
	}
	eng.Run()
	if len(rec.received) != 1 || rec.received[0] != f {
		t.Fatalf("lone arrival on a recycled record: received %v", rec.received)
	}
}
