// Package ewmac is a discrete-event simulation library for underwater
// acoustic sensor network (UASN) MAC protocols, built as a faithful
// reproduction of:
//
//	Hung & Luo, "A Protocol for Efficient Transmissions in UASNs",
//	IEEE ICDCS Workshops 2013 (extended as "Protocol to Exploit
//	Waiting Resources for UASNs", Sensors 16(3):343, 2016).
//
// It implements the paper's EW-MAC protocol — a slotted four-way
// handshake that schedules extra communications inside the propagation
// waiting windows other protocols leave idle — together with the three
// baselines of the paper's evaluation (S-FAMA, ROPA, CS-MAC), a full
// acoustic-channel substrate (Thorp absorption, Wenz ambient noise,
// SINR-based collision resolution, half-duplex modems, mobility), and
// a harness that regenerates every figure of the paper.
//
// Quick start:
//
//	cfg := ewmac.DefaultConfig(ewmac.EWMAC)
//	cfg.OfferedLoadKbps = 0.6
//	res, err := ewmac.Run(cfg)
//	if err != nil { ... }
//	fmt.Printf("throughput: %.3f kbps\n", res.Summary.ThroughputKbps)
//
// The package is a thin facade; the implementation lives under
// internal/ (see DESIGN.md for the system inventory).
package ewmac

import (
	"time"

	"ewmac/internal/experiment"
	"ewmac/internal/figures"
	"ewmac/internal/mac"
	"ewmac/internal/metrics"
	"ewmac/internal/obs"
	"ewmac/internal/sim"
)

// Protocol selects the MAC protocol under test.
type Protocol = experiment.Protocol

// The four protocols of the paper's evaluation, plus the S-ALOHA
// extension baseline.
const (
	// EWMAC is the paper's contribution.
	EWMAC = experiment.ProtocolEWMAC
	// SFAMA is Slotted FAMA, the conservative baseline.
	SFAMA = experiment.ProtocolSFAMA
	// ROPA is Reverse Opportunistic Packet Appending.
	ROPA = experiment.ProtocolROPA
	// CSMAC is the Channel Stealing MAC.
	CSMAC = experiment.ProtocolCSMAC
	// SALOHA is slotted ALOHA, an extension baseline outside the
	// paper's evaluation.
	SALOHA = experiment.ProtocolSALOHA
)

// Protocols lists all four in the paper's presentation order.
var Protocols = experiment.Protocols

// Config describes one simulation scenario (Table 2 of the paper plus
// protocol options).
type Config = experiment.Config

// Budget bounds a run's execution (wall-clock deadline, event cap,
// livelock watchdog); set Config.Budget to supervise a run.
type Budget = sim.Budget

// Result is one run's outcome: the metric summary plus topology
// characteristics and raw per-node samples.
type Result = experiment.Result

// Observe configures the unified observability layer for a run:
// structured event tracing (trace-v2 JSONL), periodic time-series
// sampling (CSV), and per-run report collection. Set Config.Observe.
type Observe = experiment.Observe

// RunReport is the per-run observability summary attached to
// Result.Report when Observe.Report is enabled.
type RunReport = obs.RunReport

// OverloadConfig configures graceful degradation under saturation:
// queue drop policies, two-class priority, admission control, and
// retry budgets. Set Config.Overload; the zero value keeps the
// historical tail-drop behaviour bit-identically.
type OverloadConfig = mac.OverloadConfig

// RetryBudgetConfig is the token-bucket retry budget inside
// OverloadConfig.
type RetryBudgetConfig = mac.RetryBudgetConfig

// DropPolicy selects what a full MAC queue sheds.
type DropPolicy = mac.DropPolicy

// The queue drop policies.
const (
	// DropTail rejects the incoming packet (the historical default).
	DropTail = mac.DropTail
	// DropOldest evicts the oldest queued packet to admit the new one.
	DropOldest = mac.DropOldest
	// DropDeadline lazily expires packets past their TTL deadline.
	DropDeadline = mac.DropDeadline
)

// ParseDropPolicy parses a drop-policy name ("tail", "oldest",
// "deadline") as used by command-line flags.
func ParseDropPolicy(s string) (DropPolicy, error) { return mac.ParseDropPolicy(s) }

// Summary carries the paper's evaluation metrics for one run
// (Equations (2)–(4)).
type Summary = metrics.Summary

// FigureTable is a reproduced figure: X values against one Y series
// per protocol, renderable as ASCII or CSV.
type FigureTable = figures.Table

// FigureOptions control sweep fidelity (seeds, simulated time).
type FigureOptions = figures.Options

// DefaultConfig returns the paper's Table 2 scenario for protocol p:
// 60 sensors plus 4 surface sinks in a 1 km cube, 12 kbps band,
// 1.5 km range, 2048-bit data packets, 300 s simulated.
func DefaultConfig(p Protocol) Config { return experiment.Default(p) }

// Run executes one scenario deterministically (same Config and Seed →
// identical Result).
func Run(cfg Config) (*Result, error) { return experiment.Run(cfg) }

// RunMean executes the scenario once per seed and averages the metric
// summary.
func RunMean(cfg Config, seeds []int64) (Summary, error) {
	return experiment.RunMean(cfg, seeds)
}

// OverheadRatio and EfficiencyIndex compare a run against a same-
// scenario S-FAMA baseline, as in Figures 10 and 11.
func OverheadRatio(s, baseline Summary) float64 { return metrics.OverheadRatio(s, baseline) }

// EfficiencyIndex normalizes Equation (4) to the baseline protocol.
func EfficiencyIndex(s, baseline Summary) float64 { return metrics.EfficiencyIndex(s, baseline) }

// Figure6 … Figure11 regenerate the corresponding paper figures.

// Figure6 sweeps offered load (throughput).
func Figure6(o FigureOptions) (*FigureTable, error) { return figures.Figure6(o) }

// Figure7 sweeps sensor density (throughput).
func Figure7(o FigureOptions) (*FigureTable, error) { return figures.Figure7(o) }

// Figure8 sweeps offered load (execution time).
func Figure8(o FigureOptions) (*FigureTable, error) { return figures.Figure8(o) }

// Figure9a sweeps offered load (power, 80 sensors).
func Figure9a(o FigureOptions) (*FigureTable, error) { return figures.Figure9a(o) }

// Figure9b sweeps sensor count (power, 0.3 kbps).
func Figure9b(o FigureOptions) (*FigureTable, error) { return figures.Figure9b(o) }

// Figure10a sweeps sensor count (overhead ratio, 0.5 kbps).
func Figure10a(o FigureOptions) (*FigureTable, error) { return figures.Figure10a(o) }

// Figure10b sweeps offered load (overhead ratio, 200 sensors).
func Figure10b(o FigureOptions) (*FigureTable, error) { return figures.Figure10b(o) }

// Figure11 sweeps offered load (efficiency index).
func Figure11(o FigureOptions) (*FigureTable, error) { return figures.Figure11(o) }

// FigurePacketSize sweeps the data payload size (extension experiment
// for the paper's large-packet claim).
func FigurePacketSize(o FigureOptions) (*FigureTable, error) { return figures.FigurePacketSize(o) }

// Table2 renders the simulation-parameter table.
func Table2() string { return figures.Table2() }

// QuickFigureOptions returns low-fidelity sweep options (single seed,
// shortened runs) for smoke tests and benchmarks.
func QuickFigureOptions() FigureOptions {
	return FigureOptions{Seeds: []int64{1}, SimTime: 120 * time.Second}
}
