package main

import (
	_ "embed"
	"fmt"
	"io"
	"time"

	"ewmac"
	"ewmac/internal/fault"
	"ewmac/internal/figures"
)

// pair is one (config, seed) point of a single-run workload's cycle.
type pair struct {
	label string
	cfg   ewmac.Config
}

// figureGen is one figure generator, as figures.All lists them.
type figureGen = struct {
	ID  string
	Run func(figures.Options) (*figures.Table, error)
}

// workload is one named set of inputs. A single-run workload cycles
// through pairs, one ewmac.Run at a time; the sweep workload runs figure
// generators instead.
type workload struct {
	name string
	// pairs returns the cycle for base seed S: seeds S…S+K-1. Nil for
	// the sweep.
	pairs func(seed int64) []pair
	// figs and figOpts define the sweep; figs is nil elsewhere.
	figs    []figureGen
	figOpts func(seed int64) ewmac.FigureOptions
	// shape lists the configs whose event streams stand for the sweep in
	// the traced run: figure points are built inside the figures package,
	// where no recorder reaches them.
	shape func(seed int64) []pair
}

//go:embed chaos.json
var chaosJSON []byte

// chaosScenario is examples/faults/chaos.json, copied so the workload's
// inputs stay fixed when the example changes.
var chaosScenario = func() *fault.Scenario {
	s, err := fault.Parse(chaosJSON)
	if err != nil {
		panic(fmt.Sprintf("embedded chaos scenario: %v", err))
	}
	return s
}()

// chaosOverload is the overload management CI's conformance job runs:
// deadline drops with a 30 s TTL, admission high-water 0.9, and a retry
// budget with burst 8.
var chaosOverload = ewmac.OverloadConfig{
	Policy:      ewmac.DropDeadline,
	PacketTTL:   30 * time.Second,
	HighWater:   0.9,
	RetryBudget: ewmac.RetryBudgetConfig{Burst: 8},
}

// fiveProtocols is the chaos-verify round-robin: the paper's four plus
// slotted ALOHA.
var fiveProtocols = []ewmac.Protocol{ewmac.EWMAC, ewmac.SFAMA, ewmac.ROPA, ewmac.CSMAC, ewmac.SALOHA}

func label(p ewmac.Protocol, seed int64) string { return fmt.Sprintf("%s/seed=%d", p, seed) }

// cycle builds K pairs from mk, one per seed S…S+K-1, for each protocol.
func cycle(seed int64, k int, protos []ewmac.Protocol, mk func(ewmac.Protocol) ewmac.Config) []pair {
	var ps []pair
	for s := seed; s < seed+int64(k); s++ {
		for _, p := range protos {
			c := mk(p)
			c.Seed = s
			ps = append(ps, pair{label(p, s), c})
		}
	}
	return ps
}

func headlineConfig(ewmac.Protocol) ewmac.Config { return ewmac.DefaultConfig(ewmac.EWMAC) }

func denseConfig(ewmac.Protocol) ewmac.Config {
	c := ewmac.DefaultConfig(ewmac.EWMAC)
	c.Nodes = 200
	c.OfferedLoadKbps = 1.0
	c.SimTime = 75 * time.Second
	return c
}

func chaosConfig(p ewmac.Protocol) ewmac.Config {
	c := ewmac.DefaultConfig(p)
	c.OfferedLoadKbps = 1.5
	c.SimTime = 120 * time.Second
	c.Faults = chaosScenario
	c.Overload = chaosOverload
	c.Observe = &ewmac.Observe{Trace: io.Discard, Report: true, Verify: true}
	return c
}

// sweepOptions is QuickFigureOptions at base seed S with two workers,
// the CPU count the benchmark is sized for.
func sweepOptions(seed int64) ewmac.FigureOptions {
	o := ewmac.QuickFigureOptions()
	o.Seeds = []int64{seed}
	o.Workers = 2
	return o
}

// sweepShape spans the sweep's range of point sizes: the Table 2 point
// and the 200-sensor Figure 10b point, for the four paper protocols,
// at the sweep's simulated time.
func sweepShape(seed int64) []pair {
	simTime := sweepOptions(seed).SimTime
	small := cycle(seed, 1, ewmac.Protocols, func(p ewmac.Protocol) ewmac.Config {
		c := ewmac.DefaultConfig(p)
		c.SimTime = simTime
		return c
	})
	large := cycle(seed, 1, ewmac.Protocols, func(p ewmac.Protocol) ewmac.Config {
		c := ewmac.DefaultConfig(p)
		c.Nodes = 200
		c.OfferedLoadKbps = 0.8
		c.SimTime = simTime
		return c
	})
	for i := range large {
		large[i].label = "200n-" + large[i].label
	}
	return append(small, large...)
}

// workloads are the benchmark's inputs; README.md gives each one's
// reason. The cycles are long, so that neighbouring base seeds share
// most of their inputs and a metric moves little from one seed to the
// next, yet short enough that each pair runs about three times in 20 s.
var workloads = []workload{
	{
		name: "headline",
		pairs: func(seed int64) []pair {
			return cycle(seed, 100, []ewmac.Protocol{ewmac.EWMAC}, headlineConfig)
		},
	},
	{
		name: "dense",
		pairs: func(seed int64) []pair {
			return cycle(seed, 40, []ewmac.Protocol{ewmac.EWMAC}, denseConfig)
		},
	},
	{
		name: "chaos-verify",
		pairs: func(seed int64) []pair {
			return cycle(seed, 20, fiveProtocols, chaosConfig)
		},
	},
	{
		name:    "sweep",
		figs:    figures.All(),
		figOpts: sweepOptions,
		shape:   sweepShape,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// truncate cuts a config off just after the Hello phase, so a run
// covers deployment, modem and MAC construction, geometry-cache fill
// and the warm-up: the set-up every run pays before traffic starts.
func truncate(c ewmac.Config) ewmac.Config {
	c.SimTime = c.Warmup + time.Millisecond
	return c
}
