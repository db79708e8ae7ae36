package acoustic

import (
	"fmt"
	"math"
	"time"

	"ewmac/internal/vec"
)

// Model bundles the physical parameters of one acoustic environment and
// answers the two questions the simulator asks of a channel: how long a
// signal takes between two points, and how strong it is when it gets
// there relative to noise and interference.
type Model struct {
	// Profile is the sound-speed profile. Defaults to 1500 m/s uniform.
	Profile SpeedProfile
	// FreqKHz is the carrier frequency in kHz (paper band: 10 kHz class).
	FreqKHz float64
	// BandwidthHz is the receiver band in Hz, used to integrate noise PSD.
	BandwidthHz float64
	// Spreading is the geometric spreading exponent (1.5 = practical).
	Spreading float64
	// Shipping is the Wenz shipping activity factor in [0, 1].
	Shipping float64
	// WindMS is the Wenz surface wind speed in m/s.
	WindMS float64
	// TxPowerW is the projector's electrical transmit power in watts.
	TxPowerW float64
	// MaxRangeM is the nominal communication range; beyond it a signal
	// is treated as pure interference, never as a decodable frame.
	MaxRangeM float64
	// SINRThresholdDB is the minimum SINR for successful reception.
	SINRThresholdDB float64
	// SurfaceReflection enables a two-ray extension: each transmission
	// also reaches receivers via a surface-bounced path (the image
	// source mirrored across the sea surface), delayed and attenuated,
	// arriving as pure interference. An extension beyond the paper's
	// channel (NS-3's default UAN PER model ignores multipath too);
	// used by the multipath ablation bench.
	SurfaceReflection bool
	// SurfaceLossDB is the additional loss of one surface bounce.
	SurfaceLossDB float64
}

// DefaultModel returns the environment from the paper's Table 2: 10 kHz
// carrier, 1.5 km range, 1500 m/s uniform sound speed, practical
// spreading, moderate shipping and wind, and a threshold receiver.
func DefaultModel() *Model {
	return &Model{
		Profile:         UniformSpeed(1500),
		FreqKHz:         10,
		BandwidthHz:     12_000,
		Spreading:       1.5,
		Shipping:        0.5,
		WindMS:          5,
		TxPowerW:        2,
		MaxRangeM:       1500,
		SINRThresholdDB: 10,
	}
}

// Validate reports the first non-physical parameter.
func (m *Model) Validate() error {
	switch {
	case m.Profile == nil:
		return fmt.Errorf("acoustic: nil speed profile")
	case m.FreqKHz <= 0:
		return fmt.Errorf("acoustic: carrier frequency %v kHz must be positive", m.FreqKHz)
	case m.BandwidthHz <= 0:
		return fmt.Errorf("acoustic: bandwidth %v Hz must be positive", m.BandwidthHz)
	case m.Spreading < 1 || m.Spreading > 2:
		return fmt.Errorf("acoustic: spreading exponent %v outside [1, 2]", m.Spreading)
	case m.TxPowerW <= 0:
		return fmt.Errorf("acoustic: transmit power %v W must be positive", m.TxPowerW)
	case m.MaxRangeM <= 0:
		return fmt.Errorf("acoustic: max range %v m must be positive", m.MaxRangeM)
	}
	return validateProfile(m.Profile, 10_000)
}

// Delay returns the one-way propagation delay between two points, using
// the mean sound speed over the endpoint depths.
func (m *Model) Delay(a, b vec.V3) time.Duration {
	return m.DelayOver(a.Dist(b), a.Depth(), b.Depth())
}

// DelayOver is Delay for two points distM metres apart at the given
// depths, bit for bit: callers that already hold a pair's distance
// pass it rather than compute it again.
func (m *Model) DelayOver(distM, depthA, depthB float64) time.Duration {
	return delayAt(distM, MeanSpeed(m.Profile, depthA, depthB))
}

// delayAt is the delay over distM metres at mean speed c, falling back
// to 1500 m/s for a non-physical speed.
func delayAt(distM, c float64) time.Duration {
	if c <= 0 {
		c = 1500
	}
	return time.Duration(distM / c * float64(time.Second))
}

// DelayForDistance returns the delay over a straight path of the given
// length at the profile's surface speed; used for slot sizing where only
// the worst-case range matters.
func (m *Model) DelayForDistance(distM float64) time.Duration {
	c := m.Profile.SpeedAt(0)
	if c <= 0 {
		c = 1500
	}
	return time.Duration(distM / c * float64(time.Second))
}

// MaxDelay returns the propagation delay across the nominal range: the
// τmax that slotted protocols must budget for.
func (m *Model) MaxDelay() time.Duration {
	return m.DelayForDistance(m.MaxRangeM)
}

// InRange reports whether two points are within decodable range.
func (m *Model) InRange(a, b vec.V3) bool {
	return a.Dist(b) <= m.MaxRangeM
}

// ReceivedLevelDB returns the received signal level in dB re µPa for a
// transmission from a to b.
func (m *Model) ReceivedLevelDB(a, b vec.V3) float64 {
	return m.LevelAtDB(SourceLevelDB(m.TxPowerW), a.Dist(b))
}

// LevelAtDB returns the level in dB re µPa received distM metres from a
// source of level sourceDB. With sourceDB = SourceLevelDB(m.TxPowerW)
// it is ReceivedLevelDB, bit for bit; callers that evaluate many pairs
// compute the source level once and pass it in.
func (m *Model) LevelAtDB(sourceDB, distM float64) float64 {
	return sourceDB - PathLossDB(distM, m.FreqKHz, m.Spreading)
}

// Paths is a Model's per-pair arithmetic with its per-model constants
// worked out once, for callers that evaluate many pairs of one model
// (a broadcast's receivers): Delay and LevelAtDB are the Model's
// DelayOver and LevelAtDB bit for bit, by the same floating-point
// operations in the same order. Only a uniform speed profile's mean
// speed is hoisted; any other profile keeps DelayOver's depth sum.
type Paths struct {
	m          *Model
	spread10   float64 // Spreading*10
	absorption float64 // ThorpAbsorption(FreqKHz), dB/km
	uniform    bool
	// A uniform profile's speed at equal depths (SpeedAt) and its
	// 16-term MeanSpeed across different ones.
	sameDepth, acrossDepths float64
}

// Paths returns m's per-pair arithmetic; m must not change while the
// result is in use.
func (m *Model) Paths() Paths {
	p := Paths{m: m, spread10: m.Spreading * 10, absorption: ThorpAbsorption(m.FreqKHz)}
	if u, ok := m.Profile.(UniformSpeed); ok {
		p.uniform = true
		p.sameDepth, p.acrossDepths = float64(u), uniformMean(float64(u))
	}
	return p
}

// Delay is the Model's DelayOver.
func (p *Paths) Delay(distM, depthA, depthB float64) time.Duration {
	if !p.uniform {
		return p.m.DelayOver(distM, depthA, depthB)
	}
	if depthA == depthB {
		return delayAt(distM, p.sameDepth)
	}
	return delayAt(distM, p.acrossDepths)
}

// LevelAtDB is the Model's LevelAtDB.
func (p *Paths) LevelAtDB(sourceDB, distM float64) float64 {
	return sourceDB - pathLossDB(distM, p.spread10, p.absorption)
}

// NoiseLevelDB returns total in-band ambient noise in dB re µPa.
func (m *Model) NoiseLevelDB() float64 {
	return AmbientNoiseDB(m.FreqKHz, m.Shipping, m.WindMS) + 10*math.Log10(m.BandwidthHz)
}

// SINRDB returns the signal-to-interference-plus-noise ratio for a
// signal received at signalDB against the given interferer levels
// (each in dB re µPa) plus ambient noise.
func (m *Model) SINRDB(signalDB float64, interferersDB []float64) float64 {
	denom := dbToLin(m.NoiseLevelDB())
	for _, i := range interferersDB {
		denom += dbToLin(i)
	}
	return signalDB - linToDB(denom)
}

// SINRDBFromLin returns the SINR for a signal at signalDB against an
// interference power already summed in the linear domain (µPa² units
// consistent with DBToLin of received levels). The PHY uses this form
// because it tracks the worst-case concurrent interference as a linear
// sum.
func (m *Model) SINRDBFromLin(signalDB, interferenceLin float64) float64 {
	return signalDB - linToDB(dbToLin(m.NoiseLevelDB())+interferenceLin)
}

// Decodable reports whether a frame received at the given SINR passes
// the threshold receiver.
func (m *Model) Decodable(sinrDB float64) bool {
	return sinrDB >= m.SINRThresholdDB
}

// BitRate returns the modem bit rate in bits per second implied by the
// band (the paper uses the band itself, 12 kbps over 12 kHz, i.e.
// 1 bit/s/Hz).
func (m *Model) BitRate() float64 { return m.BandwidthHz }

// SurfacePath returns the delay and received level of the
// surface-bounced ray from a to b: the straight path from a's image
// source (a mirrored across the surface, Z → −Z) to b, with the bounce
// loss added. Only meaningful when SurfaceReflection is enabled.
func (m *Model) SurfacePath(a, b vec.V3) (time.Duration, float64) {
	image := vec.V3{X: a.X, Y: a.Y, Z: -a.Z}
	// The image point is a geometric construction; the ray itself runs
	// through near-surface water, so the surface sound speed applies.
	delay := m.DelayForDistance(image.Dist(b))
	loss := m.SurfaceLossDB
	if loss <= 0 {
		loss = 3
	}
	level := SourceLevelDB(m.TxPowerW) - PathLossDB(image.Dist(b), m.FreqKHz, m.Spreading) - loss
	return delay, level
}
