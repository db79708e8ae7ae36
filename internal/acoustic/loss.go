package acoustic

import "math"

// ThorpAbsorption returns the frequency-dependent absorption coefficient
// in dB/km for a signal at freqKHz kilohertz, using Thorp's empirical
// formula (valid for the few-to-tens-of-kHz band UASN modems use).
func ThorpAbsorption(freqKHz float64) float64 {
	f2 := freqKHz * freqKHz
	return 0.11*f2/(1+f2) + 44*f2/(4100+f2) + 2.75e-4*f2 + 0.003
}

// PathLossDB returns the transmission loss in dB over distM meters at
// freqKHz, combining geometric spreading (exponent k: 1 cylindrical,
// 2 spherical, 1.5 "practical") and Thorp absorption. Distances below
// one meter are clamped: the reference level is defined at 1 m.
func PathLossDB(distM, freqKHz, spreading float64) float64 {
	return pathLossDB(distM, spreading*10, ThorpAbsorption(freqKHz))
}

// pathLossDB is PathLossDB with its per-model factors, spreading*10 and
// the absorption in dB/km, already worked out.
func pathLossDB(distM, spread10, absorption float64) float64 {
	if distM < 1 {
		distM = 1
	}
	return spread10*math.Log10(distM) + absorption*distM/1000
}

// SourceLevelDB converts electrical transmit power in watts into a
// source level in dB re µPa at 1 m, using the standard conversion for
// an omnidirectional projector (0.67e-18 W/m² per µPa²).
func SourceLevelDB(txPowerW float64) float64 {
	if txPowerW <= 0 {
		return math.Inf(-1)
	}
	return 170.8 + 10*math.Log10(txPowerW)
}

// Ambient noise per Wenz's curves in the compact form popularized by
// Stojanovic: four components (turbulence, shipping, wind/waves,
// thermal), each a power spectral density in dB re µPa per Hz at
// frequency freqKHz.

// NoiseTurbulenceDB returns the turbulence noise PSD.
func NoiseTurbulenceDB(freqKHz float64) float64 {
	return 17 - 30*math.Log10(freqKHz)
}

// NoiseShippingDB returns the shipping noise PSD for shipping activity
// s in [0, 1].
func NoiseShippingDB(freqKHz, s float64) float64 {
	return 40 + 20*(s-0.5) + 26*math.Log10(freqKHz) - 60*math.Log10(freqKHz+0.03)
}

// NoiseWindDB returns the surface-agitation noise PSD for wind speed w
// in m/s.
func NoiseWindDB(freqKHz, w float64) float64 {
	return 50 + 7.5*math.Sqrt(w) + 20*math.Log10(freqKHz) - 40*math.Log10(freqKHz+0.4)
}

// NoiseThermalDB returns the thermal noise PSD.
func NoiseThermalDB(freqKHz float64) float64 {
	return -15 + 20*math.Log10(freqKHz)
}

// AmbientNoiseDB returns the total ambient noise PSD (dB re µPa per Hz)
// at freqKHz for the given shipping activity and wind speed, summing the
// four Wenz components in the linear domain.
func AmbientNoiseDB(freqKHz, shipping, windMS float64) float64 {
	lin := dbToLin(NoiseTurbulenceDB(freqKHz)) +
		dbToLin(NoiseShippingDB(freqKHz, shipping)) +
		dbToLin(NoiseWindDB(freqKHz, windMS)) +
		dbToLin(NoiseThermalDB(freqKHz))
	return linToDB(lin)
}

// DBToLin converts decibels to a linear power ratio.
func DBToLin(db float64) float64 { return math.Pow(10, db/10) }

// LinToDB converts a linear power ratio to decibels (-Inf for
// non-positive input).
func LinToDB(lin float64) float64 {
	if lin <= 0 {
		return math.Inf(-1)
	}
	return 10 * math.Log10(lin)
}

func dbToLin(db float64) float64 { return DBToLin(db) }

func linToDB(lin float64) float64 { return LinToDB(lin) }
