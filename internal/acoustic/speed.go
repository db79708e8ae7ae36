// Package acoustic models the underwater acoustic channel: sound-speed
// profiles, Thorp absorption, spreading loss, ambient noise, and
// SINR-based reception. It is the substitute for the NS-3 UAN/Bellhop
// channel used in the paper (see DESIGN.md): the MAC protocols under
// study observe only pairwise propagation delay and whether overlapping
// arrivals collide, and this package produces both observables from the
// same physical inputs (geometry, frequency, band, noise environment).
package acoustic

import (
	"fmt"
	"math"
)

// SpeedProfile gives the local speed of sound as a function of depth.
type SpeedProfile interface {
	// SpeedAt returns the sound speed in m/s at the given depth in
	// meters (depth grows downward, 0 is the surface).
	SpeedAt(depth float64) float64
}

// UniformSpeed is a depth-independent profile. The paper's headline
// numbers use 1500 m/s.
type UniformSpeed float64

var _ SpeedProfile = UniformSpeed(0)

// SpeedAt implements SpeedProfile.
func (u UniformSpeed) SpeedAt(float64) float64 { return float64(u) }

// MunkProfile is the canonical deep-water sound channel used by Bellhop
// test cases: c(z) = C1*(1 + eps*(eta + exp(-eta) - 1)) with
// eta = 2*(z - Z1)/B.
type MunkProfile struct {
	// C1 is the sound speed at the channel axis, m/s (canonically 1500).
	C1 float64
	// Z1 is the channel-axis depth in meters (canonically 1300).
	Z1 float64
	// B is the scale depth in meters (canonically 1300).
	B float64
	// Eps is the perturbation coefficient (canonically 0.00737).
	Eps float64
}

// CanonicalMunk returns the standard Munk profile parameters.
func CanonicalMunk() MunkProfile {
	return MunkProfile{C1: 1500, Z1: 1300, B: 1300, Eps: 0.00737}
}

var _ SpeedProfile = MunkProfile{}

// SpeedAt implements SpeedProfile.
func (m MunkProfile) SpeedAt(depth float64) float64 {
	if m.B == 0 {
		return m.C1
	}
	eta := 2 * (depth - m.Z1) / m.B
	return m.C1 * (1 + m.Eps*(eta+math.Exp(-eta)-1))
}

// MeanSpeed returns the average sound speed between two depths,
// approximated by a 16-point trapezoid along the depth axis. For the
// straight-line propagation model used here (no ray bending), this is
// the effective speed over a path whose endpoints sit at those depths.
func MeanSpeed(p SpeedProfile, depthA, depthB float64) float64 {
	if depthA == depthB {
		return p.SpeedAt(depthA)
	}
	if u, ok := p.(UniformSpeed); ok {
		return uniformMean(float64(u))
	}
	lo, hi := depthA, depthB
	if lo > hi {
		lo, hi = hi, lo
	}
	h := (hi - lo) / meanSteps
	sum := (p.SpeedAt(lo) + p.SpeedAt(hi)) / 2
	for i := 1; i < meanSteps; i++ {
		sum += p.SpeedAt(lo + float64(i)*h)
	}
	return sum / meanSteps
}

// meanSteps is MeanSpeed's trapezoid count.
const meanSteps = 16

// uniformMean is MeanSpeed's trapezoid over a profile of constant
// speed c: the same sums in the same order, without the 17 calls.
func uniformMean(c float64) float64 {
	sum := (c + c) / 2
	for i := 1; i < meanSteps; i++ {
		sum += c
	}
	return sum / meanSteps
}

// validateProfile reports a descriptive error for non-physical speeds.
func validateProfile(p SpeedProfile, maxDepth float64) error {
	for _, z := range []float64{0, maxDepth / 2, maxDepth} {
		c := p.SpeedAt(z)
		if c < 1000 || c > 2000 {
			return fmt.Errorf("acoustic: speed %v m/s at depth %v m is outside plausible ocean range [1000, 2000]", c, z)
		}
	}
	return nil
}
