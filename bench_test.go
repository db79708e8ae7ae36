package ewmac_test

// One benchmark per table and figure of the paper's evaluation
// section, plus ablation benches for the design choices called out in
// DESIGN.md. Each figure bench regenerates the corresponding sweep at
// reduced fidelity (single seed, 120 s simulated) and reports the
// headline number as a custom metric, so `go test -bench=.` doubles as
// a quick reproduction pass. cmd/figures produces the full-fidelity
// tables.

import (
	"testing"
	"time"

	"ewmac"
	"ewmac/internal/acoustic"
	ewmacproto "ewmac/internal/mac/ewmac"
	"ewmac/internal/obs"
)

func benchFigure(b *testing.B, run func(ewmac.FigureOptions) (*ewmac.FigureTable, error), metric string, pick func(*ewmac.FigureTable) float64) {
	b.Helper()
	b.ReportAllocs()
	var last float64
	for i := 0; i < b.N; i++ {
		t, err := run(ewmac.QuickFigureOptions())
		if err != nil {
			b.Fatal(err)
		}
		last = pick(t)
	}
	b.ReportMetric(last, metric)
}

// lastY returns the final data point of protocol p's series.
func lastY(t *ewmac.FigureTable, p ewmac.Protocol) float64 {
	ys := t.Y[p]
	if len(ys) == 0 {
		return 0
	}
	return ys[len(ys)-1]
}

func BenchmarkTable2DefaultScenario(b *testing.B) {
	b.ReportAllocs()
	var thr float64
	for i := 0; i < b.N; i++ {
		cfg := ewmac.DefaultConfig(ewmac.EWMAC)
		cfg.SimTime = 120 * time.Second
		res, err := ewmac.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		thr = res.Summary.ThroughputKbps
	}
	b.ReportMetric(thr, "kbps")
}

func BenchmarkFig6ThroughputVsLoad(b *testing.B) {
	benchFigure(b, ewmac.Figure6, "ewmac_kbps@1.0", func(t *ewmac.FigureTable) float64 {
		return lastY(t, ewmac.EWMAC)
	})
}

func BenchmarkFig7ThroughputVsDensity(b *testing.B) {
	benchFigure(b, ewmac.Figure7, "ewmac_kbps@140n", func(t *ewmac.FigureTable) float64 {
		return lastY(t, ewmac.EWMAC)
	})
}

func BenchmarkFig8ExecutionTime(b *testing.B) {
	benchFigure(b, ewmac.Figure8, "ewmac_sec@1.0", func(t *ewmac.FigureTable) float64 {
		return lastY(t, ewmac.EWMAC)
	})
}

func BenchmarkFig9aPowerVsLoad(b *testing.B) {
	benchFigure(b, ewmac.Figure9a, "ewmac_mW@0.8", func(t *ewmac.FigureTable) float64 {
		return lastY(t, ewmac.EWMAC)
	})
}

func BenchmarkFig9bPowerVsDensity(b *testing.B) {
	benchFigure(b, ewmac.Figure9b, "ewmac_mW@120n", func(t *ewmac.FigureTable) float64 {
		return lastY(t, ewmac.EWMAC)
	})
}

func BenchmarkFig10aOverheadVsDensity(b *testing.B) {
	benchFigure(b, ewmac.Figure10a, "ewmac_x@140n", func(t *ewmac.FigureTable) float64 {
		return lastY(t, ewmac.EWMAC)
	})
}

func BenchmarkFig10bOverheadVsLoad(b *testing.B) {
	benchFigure(b, ewmac.Figure10b, "ewmac_x@0.8", func(t *ewmac.FigureTable) float64 {
		return lastY(t, ewmac.EWMAC)
	})
}

func BenchmarkFig11Efficiency(b *testing.B) {
	benchFigure(b, ewmac.Figure11, "ewmac_x@1.0", func(t *ewmac.FigureTable) float64 {
		return lastY(t, ewmac.EWMAC)
	})
}

func BenchmarkExtPacketSize(b *testing.B) {
	benchFigure(b, ewmac.FigurePacketSize, "ewmac_kbps@4096", func(t *ewmac.FigureTable) float64 {
		return lastY(t, ewmac.EWMAC)
	})
}

// ---- Ablation benches (design choices from DESIGN.md) ----

func runLoaded(b *testing.B, edit func(*ewmac.Config)) float64 {
	b.Helper()
	cfg := ewmac.DefaultConfig(ewmac.EWMAC)
	cfg.OfferedLoadKbps = 0.8
	cfg.SimTime = 150 * time.Second
	if edit != nil {
		edit(&cfg)
	}
	res, err := ewmac.Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return res.Summary.ThroughputKbps
}

// BenchmarkAblationNoGuard disables the neighbor-interference admission
// check before extra transmissions. Unguarded EW-MAC admits more extras
// and may even gain raw throughput — but it starts corrupting
// negotiated exchanges, which is precisely what the paper's §4.2
// forbids. The streaming oracle counts those guard breaches; guarded
// EW-MAC must show zero.
func BenchmarkAblationNoGuard(b *testing.B) {
	b.ReportAllocs()
	run := func(disable bool) (float64, int) {
		cfg := ewmac.DefaultConfig(ewmac.EWMAC)
		cfg.OfferedLoadKbps = 0.8
		cfg.SimTime = 150 * time.Second
		cfg.MobileFraction = 0
		cfg.EW = ewmacproto.Options{DisableNeighborGuard: disable}
		cfg.Observe = &ewmac.Observe{Verify: true}
		res, err := ewmac.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		return res.Summary.ThroughputKbps, int(res.Conformance.ByReason[obs.OracleExtraGuard])
	}
	var withThr, withoutThr float64
	var withBreach, withoutBreach int
	for i := 0; i < b.N; i++ {
		withThr, withBreach = run(false)
		withoutThr, withoutBreach = run(true)
	}
	b.ReportMetric(withThr, "kbps_guarded")
	b.ReportMetric(withoutThr, "kbps_unguarded")
	b.ReportMetric(float64(withBreach), "breaches_guarded")
	b.ReportMetric(float64(withoutBreach), "breaches_unguarded")
}

// BenchmarkAblationUniformPriority removes the wait-time boost from the
// RTS random priority. The paper introduces rp "to balance fairness"
// (§3.1), so the interesting metric is Jain's index over per-sender
// service, not throughput.
func BenchmarkAblationUniformPriority(b *testing.B) {
	b.ReportAllocs()
	run := func(uniform bool) (float64, float64) {
		cfg := ewmac.DefaultConfig(ewmac.EWMAC)
		cfg.OfferedLoadKbps = 0.8
		cfg.SimTime = 150 * time.Second
		cfg.EW = ewmacproto.Options{UniformPriority: uniform}
		res, err := ewmac.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		return res.Summary.ThroughputKbps, res.Summary.Fairness
	}
	var boostThr, boostFair, uniThr, uniFair float64
	for i := 0; i < b.N; i++ {
		boostThr, boostFair = run(false)
		uniThr, uniFair = run(true)
	}
	b.ReportMetric(boostThr, "kbps_waitboost")
	b.ReportMetric(uniThr, "kbps_uniform")
	b.ReportMetric(boostFair, "jain_waitboost")
	b.ReportMetric(uniFair, "jain_uniform")
}

// BenchmarkAblationMobility contrasts a static deployment with a fully
// drifting one (delay-table staleness, §5 closing discussion).
func BenchmarkAblationMobility(b *testing.B) {
	b.ReportAllocs()
	var static, drifting float64
	for i := 0; i < b.N; i++ {
		static = runLoaded(b, func(c *ewmac.Config) { c.MobileFraction = 0 })
		drifting = runLoaded(b, func(c *ewmac.Config) {
			c.MobileFraction = 1
			c.CurrentMS = 3
		})
	}
	b.ReportMetric(static, "kbps_static")
	b.ReportMetric(drifting, "kbps_drifting")
}

// BenchmarkAblationMultipath contrasts the single-ray channel with the
// two-ray surface-reflection extension: echoes add interference and
// cost some throughput.
func BenchmarkAblationMultipath(b *testing.B) {
	b.ReportAllocs()
	var singleRay, twoRay float64
	for i := 0; i < b.N; i++ {
		singleRay = runLoaded(b, nil)
		twoRay = runLoaded(b, func(c *ewmac.Config) {
			m := acoustic.DefaultModel()
			m.SurfaceReflection = true
			c.Model = m
		})
	}
	b.ReportMetric(singleRay, "kbps_single_ray")
	b.ReportMetric(twoRay, "kbps_two_ray")
}

// BenchmarkAblationCapture contrasts the default threshold receiver
// with a capture-friendly one (6 dB): collisions resolve in favour of
// the stronger frame more often.
func BenchmarkAblationCapture(b *testing.B) {
	b.ReportAllocs()
	var strict, capture float64
	for i := 0; i < b.N; i++ {
		strict = runLoaded(b, nil)
		capture = runLoaded(b, func(c *ewmac.Config) {
			m := acoustic.DefaultModel()
			m.SINRThresholdDB = 6
			c.Model = m
		})
	}
	b.ReportMetric(strict, "kbps_10dB")
	b.ReportMetric(capture, "kbps_6dB")
}
