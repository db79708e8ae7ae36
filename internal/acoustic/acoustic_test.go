package acoustic

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"ewmac/internal/vec"
)

// LinearSpeed is a profile with constant gradient, a common fit for the
// mixed surface layer: c(z) = Surface + Gradient*z.
type LinearSpeed struct {
	// Surface is the sound speed at depth 0, m/s.
	Surface float64
	// Gradient is the change per meter of depth, 1/s. Positive values
	// mean speed grows with depth.
	Gradient float64
}

var _ SpeedProfile = LinearSpeed{}

// SpeedAt implements SpeedProfile.
func (l LinearSpeed) SpeedAt(depth float64) float64 {
	return l.Surface + l.Gradient*depth
}

// BPSKPER derives PER from the BPSK bit error rate over an AWGN
// channel: BER = Q(sqrt(2·SINR)), PER = 1 − (1 − BER)^bits. It makes
// marginal links lossy rather than binary, which matters for the
// mobility experiments where ranges hover near the edge.
type BPSKPER struct{}

var _ PERModel = BPSKPER{}

// PER implements PERModel.
func (BPSKPER) PER(sinrDB float64, bits int) float64 {
	if bits <= 0 {
		return 0
	}
	sinr := math.Pow(10, sinrDB/10)
	ber := qfunc(math.Sqrt(2 * sinr))
	// log1p keeps precision when ber is tiny.
	return -math.Expm1(float64(bits) * math.Log1p(-ber))
}

// qfunc is the Gaussian tail probability Q(x) = P(N(0,1) > x).
func qfunc(x float64) float64 {
	return 0.5 * math.Erfc(x/math.Sqrt2)
}

func TestThorpAbsorptionKnownValues(t *testing.T) {
	// Thorp at 10 kHz is ≈ 1.1 dB/km; at low frequency it approaches
	// the 0.003 constant.
	got := ThorpAbsorption(10)
	if got < 0.8 || got > 1.5 {
		t.Errorf("ThorpAbsorption(10 kHz) = %v dB/km, want ≈1.1", got)
	}
	if lo := ThorpAbsorption(0.01); lo < 0.003 || lo > 0.01 {
		t.Errorf("ThorpAbsorption(0.01 kHz) = %v, want ≈0.003", lo)
	}
}

func TestThorpMonotoneInBand(t *testing.T) {
	prev := 0.0
	for f := 1.0; f <= 100; f += 1 {
		a := ThorpAbsorption(f)
		if a < prev {
			t.Fatalf("absorption decreased at %v kHz: %v < %v", f, a, prev)
		}
		prev = a
	}
}

func TestPathLossGrowsWithDistance(t *testing.T) {
	prev := -1.0
	for _, d := range []float64{1, 10, 100, 1000, 1500, 5000} {
		pl := PathLossDB(d, 10, 1.5)
		if pl <= prev {
			t.Fatalf("path loss not increasing at %v m: %v <= %v", d, pl, prev)
		}
		prev = pl
	}
}

func TestPathLossClampsBelowOneMeter(t *testing.T) {
	if PathLossDB(0.1, 10, 1.5) != PathLossDB(1, 10, 1.5) {
		t.Error("path loss below 1 m not clamped to reference distance")
	}
}

func TestSourceLevel(t *testing.T) {
	// 1 W source is 170.8 dB re µPa @ 1m by definition of the constant.
	if got := SourceLevelDB(1); math.Abs(got-170.8) > 1e-9 {
		t.Errorf("SourceLevelDB(1) = %v, want 170.8", got)
	}
	if got := SourceLevelDB(10); math.Abs(got-180.8) > 1e-9 {
		t.Errorf("SourceLevelDB(10) = %v, want 180.8", got)
	}
	if !math.IsInf(SourceLevelDB(0), -1) {
		t.Error("SourceLevelDB(0) should be -Inf")
	}
}

func TestAmbientNoiseDominatedByWindAt10kHz(t *testing.T) {
	f := 10.0
	total := AmbientNoiseDB(f, 0.5, 10)
	wind := NoiseWindDB(f, 10)
	if total < wind {
		t.Errorf("total noise %v below wind component %v", total, wind)
	}
	if total > wind+6 {
		t.Errorf("total noise %v implausibly far above dominant wind term %v", total, wind)
	}
}

func TestNoiseIncreasesWithWindAndShipping(t *testing.T) {
	base := AmbientNoiseDB(10, 0.2, 2)
	if AmbientNoiseDB(10, 0.9, 2) < base {
		t.Error("noise decreased with more shipping")
	}
	if AmbientNoiseDB(10, 0.2, 15) < base {
		t.Error("noise decreased with more wind")
	}
}

func TestSpeedProfiles(t *testing.T) {
	if got := UniformSpeed(1500).SpeedAt(4000); got != 1500 {
		t.Errorf("uniform profile = %v", got)
	}
	lin := LinearSpeed{Surface: 1500, Gradient: 0.016}
	if got := lin.SpeedAt(1000); math.Abs(got-1516) > 1e-9 {
		t.Errorf("linear profile at 1000 m = %v, want 1516", got)
	}
	munk := CanonicalMunk()
	axis := munk.SpeedAt(1300)
	if math.Abs(axis-1500) > 1e-6 {
		t.Errorf("Munk at axis = %v, want 1500", axis)
	}
	// Munk speed has its minimum at the channel axis.
	if munk.SpeedAt(0) <= axis || munk.SpeedAt(4000) <= axis {
		t.Error("Munk profile does not have minimum at channel axis")
	}
}

func TestMunkZeroScaleDepthFallsBack(t *testing.T) {
	m := MunkProfile{C1: 1500}
	if got := m.SpeedAt(123); got != 1500 {
		t.Errorf("Munk with B=0 = %v, want C1", got)
	}
}

func TestMeanSpeed(t *testing.T) {
	lin := LinearSpeed{Surface: 1500, Gradient: 0.02}
	// Mean of a linear profile between two depths is the midpoint value.
	got := MeanSpeed(lin, 0, 1000)
	if math.Abs(got-1510) > 1e-9 {
		t.Errorf("MeanSpeed linear = %v, want 1510", got)
	}
	if MeanSpeed(lin, 500, 500) != lin.SpeedAt(500) {
		t.Error("MeanSpeed at equal depths should be pointwise speed")
	}
	if MeanSpeed(lin, 1000, 0) != got {
		t.Error("MeanSpeed not symmetric in depth order")
	}
}

// hiddenSpeed hides a UniformSpeed from MeanSpeed's type switch, so it
// takes the generic trapezoid.
type hiddenSpeed struct{ SpeedProfile }

func TestMeanSpeedUniformMatchesGeneric(t *testing.T) {
	for _, c := range []float64{1500, 1500.123, 1000 + 1.0/3, 1e3 * math.Pi} {
		u := UniformSpeed(c)
		for _, d := range [][2]float64{{0, 1000}, {1000, 0}, {12.5, 12.5}, {3, 2999.75}, {-1, math.Inf(1)}} {
			got, want := MeanSpeed(u, d[0], d[1]), MeanSpeed(hiddenSpeed{u}, d[0], d[1])
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("MeanSpeed(UniformSpeed(%v), %v, %v) = %v, generic path %v", c, d[0], d[1], got, want)
			}
		}
	}
}

func TestModelDelay(t *testing.T) {
	m := DefaultModel()
	a := vec.V3{X: 0, Y: 0, Z: 100}
	b := vec.V3{X: 1500, Y: 0, Z: 100}
	d := m.Delay(a, b)
	want := time.Second // 1500 m at 1500 m/s
	if diff := d - want; diff < -time.Millisecond || diff > time.Millisecond {
		t.Errorf("Delay = %v, want ≈%v", d, want)
	}
	if m.Delay(a, a) != 0 {
		t.Error("zero-distance delay should be 0")
	}
	if m.MaxDelay() != m.DelayForDistance(m.MaxRangeM) {
		t.Error("MaxDelay disagrees with DelayForDistance(MaxRangeM)")
	}
}

func TestDelaySymmetryProperty(t *testing.T) {
	m := DefaultModel()
	m.Profile = LinearSpeed{Surface: 1490, Gradient: 0.017}
	f := func(ax, ay, az, bx, by, bz uint16) bool {
		a := vec.V3{X: float64(ax % 1000), Y: float64(ay % 1000), Z: float64(az % 1000)}
		b := vec.V3{X: float64(bx % 1000), Y: float64(by % 1000), Z: float64(bz % 1000)}
		return m.Delay(a, b) == m.Delay(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSINRAndDecodable(t *testing.T) {
	m := DefaultModel()
	a := vec.V3{Z: 500}
	b := vec.V3{X: 1000, Z: 500}
	rl := m.ReceivedLevelDB(a, b)
	sinr := m.SINRDB(rl, nil)
	if !m.Decodable(sinr) {
		t.Fatalf("1 km link not decodable without interference: SINR=%v dB", sinr)
	}
	// A co-located equal-power interferer forces SINR to ≈0 dB.
	sinrJammed := m.SINRDB(rl, []float64{rl})
	if m.Decodable(sinrJammed) {
		t.Errorf("equal-power collision decodable: SINR=%v dB", sinrJammed)
	}
	if sinrJammed >= sinr {
		t.Error("interference did not reduce SINR")
	}
}

func TestInterferenceAccumulates(t *testing.T) {
	m := DefaultModel()
	one := m.SINRDB(120, []float64{100})
	two := m.SINRDB(120, []float64{100, 100})
	if two >= one {
		t.Errorf("second interferer did not lower SINR: %v vs %v", two, one)
	}
}

func TestInRange(t *testing.T) {
	m := DefaultModel()
	a := vec.V3{}
	if !m.InRange(a, vec.V3{X: 1500}) {
		t.Error("boundary distance should be in range")
	}
	if m.InRange(a, vec.V3{X: 1500.1}) {
		t.Error("beyond-range pair reported in range")
	}
}

func TestValidate(t *testing.T) {
	if err := DefaultModel().Validate(); err != nil {
		t.Fatalf("default model invalid: %v", err)
	}
	cases := []struct {
		name string
		edit func(*Model)
	}{
		{"nil profile", func(m *Model) { m.Profile = nil }},
		{"zero freq", func(m *Model) { m.FreqKHz = 0 }},
		{"zero band", func(m *Model) { m.BandwidthHz = 0 }},
		{"spreading too low", func(m *Model) { m.Spreading = 0.5 }},
		{"zero power", func(m *Model) { m.TxPowerW = 0 }},
		{"zero range", func(m *Model) { m.MaxRangeM = 0 }},
		{"absurd profile", func(m *Model) { m.Profile = UniformSpeed(100) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := DefaultModel()
			tc.edit(m)
			if err := m.Validate(); err == nil {
				t.Error("Validate accepted invalid model")
			}
		})
	}
}

func TestThresholdPER(t *testing.T) {
	p := ThresholdPER{ThresholdDB: 10}
	if p.PER(10, 1000) != 0 {
		t.Error("at-threshold frame should pass")
	}
	if p.PER(9.99, 1000) != 1 {
		t.Error("below-threshold frame should fail")
	}
}

func TestBPSKPERBehaviour(t *testing.T) {
	p := BPSKPER{}
	if got := p.PER(20, 2048); got > 1e-9 {
		t.Errorf("PER at 20 dB = %v, want ≈0", got)
	}
	if got := p.PER(-10, 2048); got < 0.999 {
		t.Errorf("PER at -10 dB = %v, want ≈1", got)
	}
	// Longer frames fail more often at marginal SINR.
	if p.PER(5, 4096) < p.PER(5, 64) {
		t.Error("longer frame has lower PER")
	}
	if p.PER(5, 0) != 0 {
		t.Error("zero-length frame should never fail")
	}
}

// Property: PER is always a probability and monotone non-increasing in
// SINR for fixed length.
func TestBPSKPERProperty(t *testing.T) {
	p := BPSKPER{}
	f := func(sinrRaw int8, bitsRaw uint16) bool {
		sinr := float64(sinrRaw) / 4
		bits := int(bitsRaw%8192) + 1
		v := p.PER(sinr, bits)
		if v < 0 || v > 1 || math.IsNaN(v) {
			return false
		}
		return p.PER(sinr+1, bits) <= v+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestBitRateMatchesBand(t *testing.T) {
	m := DefaultModel()
	if m.BitRate() != 12000 {
		t.Errorf("BitRate = %v, want 12000", m.BitRate())
	}
}

func TestSurfacePath(t *testing.T) {
	m := DefaultModel()
	a := vec.V3{X: 0, Z: 400}
	b := vec.V3{X: 600, Z: 400}
	direct := m.Delay(a, b)
	rDelay, rLevel := m.SurfacePath(a, b)
	if rDelay <= direct {
		t.Errorf("reflected delay %v not longer than direct %v", rDelay, direct)
	}
	if rLevel >= m.ReceivedLevelDB(a, b) {
		t.Error("reflected ray not weaker than direct ray")
	}
	// Image geometry: path length is sqrt(600² + 800²) = 1000 m.
	want := m.DelayForDistance(1000)
	if diff := rDelay - want; diff < -time.Millisecond || diff > time.Millisecond {
		t.Errorf("reflected delay %v, want ≈%v", rDelay, want)
	}
	// Custom bounce loss applies.
	m.SurfaceLossDB = 10
	_, lossy := m.SurfacePath(a, b)
	if lossy >= rLevel {
		t.Error("larger bounce loss did not lower the level")
	}
}

func TestSurfacePathShallowSourceNearlyCoincides(t *testing.T) {
	m := DefaultModel()
	a := vec.V3{X: 0, Z: 1} // source grazing the surface
	b := vec.V3{X: 500, Z: 300}
	direct := m.Delay(a, b)
	rDelay, _ := m.SurfacePath(a, b)
	if gap := rDelay - direct; gap < 0 || gap > 5*time.Millisecond {
		t.Errorf("grazing-source reflected path gap = %v, want tiny", gap)
	}
}

// TestPathsMatchModel: the hoisted per-pair arithmetic is the Model's
// DelayOver and LevelAtDB bit for bit, at equal and differing depths,
// below the 1 m clamp, and for a uniform, a Munk and a custom profile.
func TestPathsMatchModel(t *testing.T) {
	for _, prof := range []SpeedProfile{UniformSpeed(1500), UniformSpeed(1487.3), CanonicalMunk(), LinearSpeed{Surface: 1490, Gradient: 0.017}} {
		m := DefaultModel()
		m.Profile = prof
		m.Spreading = 1.7
		m.FreqKHz = 23.5
		p := m.Paths()
		src := SourceLevelDB(m.TxPowerW)
		check := func(dist, a, b float64) bool {
			dist, a, b = math.Abs(dist), math.Abs(a), math.Abs(b)
			return p.Delay(dist, a, b) == m.DelayOver(dist, a, b) &&
				p.Delay(dist, a, a) == m.DelayOver(dist, a, a) &&
				math.Float64bits(p.LevelAtDB(src, dist)) == math.Float64bits(m.LevelAtDB(src, dist))
		}
		if err := quick.Check(check, nil); err != nil {
			t.Errorf("%T: %v", prof, err)
		}
		for _, dist := range []float64{0, 0.4, 1, 999.99, 1500, 3000.123} {
			if !check(dist, 10, 250) {
				t.Errorf("%T: differs at %v m", prof, dist)
			}
		}
	}
}
