package acoustic

// PERModel maps a frame's worst-case SINR during reception to a packet
// error probability. The simulator's PHY draws against this probability
// to decide whether a frame survives.
type PERModel interface {
	// PER returns the packet error rate in [0, 1] for a frame of the
	// given length in bits received at the given SINR.
	PER(sinrDB float64, bits int) float64
}

// ThresholdPER is the NS-3 UAN "default PER" analogue: a frame is
// received perfectly at or above the threshold and lost below it.
type ThresholdPER struct {
	// ThresholdDB is the SINR cutoff.
	ThresholdDB float64
}

var _ PERModel = ThresholdPER{}

// PER implements PERModel.
func (t ThresholdPER) PER(sinrDB float64, _ int) float64 {
	if sinrDB >= t.ThresholdDB {
		return 0
	}
	return 1
}

// UniformLossPER wraps another PER model with an additional independent
// loss probability — a failure-injection knob modelling transient
// channel fades (bubbles, shadowing) that no SINR computation predicts.
// Robustness tests use it to verify the protocols' retransmission paths
// recover from arbitrary frame loss.
type UniformLossPER struct {
	// Base is the underlying model (nil means "never fails on SINR").
	Base PERModel
	// LossProb is the extra independent loss probability in [0, 1].
	LossProb float64
}

var _ PERModel = UniformLossPER{}

// PER implements PERModel: 1 − (1 − base)(1 − LossProb).
func (u UniformLossPER) PER(sinrDB float64, bits int) float64 {
	base := 0.0
	if u.Base != nil {
		base = u.Base.PER(sinrDB, bits)
	}
	p := 1 - (1-base)*(1-u.LossProb)
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}
