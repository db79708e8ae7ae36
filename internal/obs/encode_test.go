package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"

	"ewmac/internal/sim"
)

// FuzzJSONSecondsMatchesFloat pins AppendJSONSeconds to AppendJSONFloat
// byte for byte, for both ways the trace derives seconds from integer
// nanoseconds: sim.Time.Seconds (one correctly rounded division) and
// time.Duration.Seconds (two roundings, so some values take the
// fallback).
func FuzzJSONSecondsMatchesFloat(f *testing.F) {
	for _, ns := range []int64{
		0, 1, 999, 1000, 1001, -1, -999, -1000, -1500, -300e9,
		1<<51 - 1, 1 << 51, 1<<51 + 1, -(1 << 51),
		300e9, 300e9 + 1, 1500e6, 123456789, 1<<63 - 1, -1 << 63,
		// Duration(1500000007).Seconds() is 1.5000000070000001, one
		// ulp off 1500000007/1e9: only the fallback writes it.
		1500000007,
	} {
		f.Add(ns)
	}
	f.Fuzz(func(t *testing.T, ns int64) {
		for _, v := range []struct {
			name string
			f    float64
		}{
			{"Time", sim.Time(ns).Seconds()},
			{"Duration", time.Duration(ns).Seconds()},
		} {
			want, ok := AppendJSONFloat([]byte("x"), v.f)
			if got := AppendJSONSeconds([]byte("x"), ns, v.f); !ok || !bytes.Equal(got, want) {
				t.Fatalf("%s(%d).Seconds() = %v: AppendJSONSeconds wrote %q, AppendJSONFloat %q (ok %v)",
					v.name, ns, v.f, got, want, ok)
			}
		}
	})
}

// FuzzJSONFloatMatchesEncodingJSON pins AppendJSONFloat to
// json.Marshal byte for byte on any float64. The seeds sit where the
// integer path's gate and fallbacks turn: powers of two (asymmetric
// rounding interval), 1 and the floats next to 1e15 (the gate's
// edges), exact decimal ties, values with trailing zeros, negatives,
// −0, subnormals, and received levels like the channel's level_db.
func FuzzJSONFloatMatchesEncodingJSON(f *testing.F) {
	for _, v := range []float64{
		1, 2, 4, 1024, 0.5, 0.25, 1 << 49, 1 << 52, 1 << 53, 1 << 60,
		math.Nextafter(1, 0), math.Nextafter(1, 2),
		1e15, math.Nextafter(1e15, 0), math.Nextafter(1e15, 2e15), 999999999999999,
		1.5, 2.5, -87.5, 100.25, 3.125, 0.375, 12345.0625,
		// Exact ties between two nearest candidates that both read
		// back: 17 digits for 1+2^-17, 16 for 8+2^-16 and 10-2^-16.
		1 + 0x1p-17, 8 + 0x1p-16, 10 - 0x1p-16, -(3 + 0x1p-16),
		10, 100, 120, 1e14, 1.1, 10.01, 300000.5, 4.2e7,
		-1, -1.5, -123.456, -1e14, math.Copysign(0, -1), 0,
		5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
		1e-6, 9.999999e-7, 1e21, 9.999999999999999e20,
		-87.43218765432198, 118.25, -60.12345678901234, 93.71342017729405,
		-104.9999999999999, 77.00000000000001, 1.0 / 3, 2.0 / 3, 0.1, 0.3,
		math.MaxFloat64, math.SmallestNonzeroFloat64,
	} {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v float64) {
		want, err := json.Marshal(v)
		got, ok := AppendJSONFloat([]byte("x"), v)
		if ok != (err == nil) || ok && !bytes.Equal(got[1:], want) {
			t.Fatalf("%v (bits %#x): AppendJSONFloat wrote %q (ok %v), json.Marshal %q (err %v)",
				v, math.Float64bits(v), got[1:], ok, want, err)
		}
	})
}
