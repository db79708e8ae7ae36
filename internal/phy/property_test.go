package phy

import (
	"testing"
	"testing/quick"
	"time"

	"ewmac/internal/acoustic"
	"ewmac/internal/energy"
	"ewmac/internal/packet"
	"ewmac/internal/sim"
)

// TestReceptionMatchesBruteForceProperty drives one modem with a
// random schedule of arrivals and recomputes, by brute force over
// intervals, which frames must have survived: a frame is decoded iff
// no overlapping arrival sits within the capture margin and the frame
// itself is above the noise floor. The modem's incremental
// interference tracking must agree exactly (threshold PER model, so no
// randomness).
func TestReceptionMatchesBruteForceProperty(t *testing.T) {
	type arrivalSpec struct {
		StartMS uint16
		DurMS   uint8
		Level   uint8
	}
	f := func(raw []arrivalSpec) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 24 {
			raw = raw[:24]
		}
		model := acoustic.DefaultModel()
		eng := sim.NewEngine(1)
		rec := &recorder{}
		modem, err := NewModem(Config{
			ID:       1,
			Engine:   eng,
			Model:    model,
			Medium:   &fakeMedium{eng: eng},
			Listener: rec,
			Energy:   energy.DefaultProfile(),
		})
		if err != nil {
			return false
		}

		type span struct {
			start, end sim.Time
			level      float64
			seq        uint32
		}
		spans := make([]span, 0, len(raw))
		for i, a := range raw {
			// Sub-millisecond jitter by index removes exact start/end
			// ties, whose event ordering is legitimately arbitrary.
			start := sim.At(time.Duration(a.StartMS%2000)*time.Millisecond +
				time.Duration(i*7)*time.Microsecond)
			dur := time.Duration(a.DurMS%200+5)*time.Millisecond + 333*time.Microsecond
			level := 100 + float64(a.Level%50) // 100..149 dB, all decodable alone
			seq := uint32(i + 1)
			spans = append(spans, span{start, start.Add(dur), level, seq})
			fr := &packet.Frame{Kind: packet.KindRTS, Src: 2, Dst: 1, Seq: seq}
			d := dur
			eng.ScheduleAt(start, sim.PriorityPHY, func() {
				modem.BeginArrival(fr, level, d, true)
			})
		}
		eng.Run()

		// Brute-force expectation: the worst instantaneous concurrent
		// interference during a's lifetime. Interference can only peak
		// when some arrival starts, so evaluating at a's start and at
		// every overlapping arrival's start covers the maximum.
		want := map[uint32]bool{}
		for i, a := range spans {
			instants := []sim.Time{a.start}
			for j, b := range spans {
				if i != j && b.start >= a.start && b.start < a.end {
					instants = append(instants, b.start)
				}
			}
			var worstLin float64
			for _, tm := range instants {
				var lin float64
				for j, b := range spans {
					if i == j || tm < b.start || tm >= b.end {
						continue
					}
					lin += acoustic.DBToLin(b.level)
				}
				if lin > worstLin {
					worstLin = lin
				}
			}
			sinr := model.SINRDBFromLin(a.level, worstLin)
			want[a.seq] = model.Decodable(sinr)
		}
		got := map[uint32]bool{}
		for _, fr := range rec.received {
			got[fr.Seq] = true
		}
		for seq, wantOK := range want {
			if got[seq] != wantOK {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}
