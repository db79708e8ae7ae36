package obs

import (
	"bytes"
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
