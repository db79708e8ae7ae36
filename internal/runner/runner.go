// Package runner is the supervision layer between the CLIs and the
// experiment/figures engines: one bad point costs one data point, not
// the run. A sweep is a grid of independent (sweep, protocol, x)
// points; the runner executes them through a worker pool with
//
//   - panic isolation — a panicking point is quarantined with its
//     stack instead of killing the process, and the remaining points
//     keep running;
//   - run budgets — each point executes under a sim.Budget (wall
//     deadline, event cap, livelock watchdog), so a pathological
//     parameter corner aborts with sim.ErrBudgetExceeded rather than
//     spinning forever. The abort quarantines the point at once: the
//     simulator is deterministic, so the same point under the same
//     budget would abort again;
//   - one run gate — every point in the process, across all
//     concurrent sweeps, holds one slot of a GOMAXPROCS-sized gate.
package runner

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"

	"ewmac/internal/metrics"
	"ewmac/internal/sim"
)

// Key identifies one sweep point within a process.
type Key struct {
	// Sweep names the grid (a figure ID, or "uansim" for single runs).
	Sweep string
	// Protocol is the MAC under test.
	Protocol string
	// X is the sweep variable's value (0 for single runs).
	X float64
}

func (k Key) String() string {
	return fmt.Sprintf("%s/%s/x=%g", k.Sweep, k.Protocol, k.X)
}

// Point statuses.
const (
	// StatusDone: the point completed and Summary is valid.
	StatusDone = "done"
	// StatusFailed: the point was quarantined (panic, budget abort, or
	// any other error).
	StatusFailed = "failed"
)

// Record is one supervised point's outcome.
type Record struct {
	Key
	Status string
	// Summary is the point's averaged metrics (nil when failed).
	Summary *metrics.Summary
	// Error and Stack describe a failure; Stack is set for panics.
	Error string
	Stack string
	// Panicked marks a quarantine caused by a recovered panic.
	Panicked bool
}

// PointFunc executes one point under the given budget and returns its
// averaged summary. It is called on a pool goroutine; panics are
// recovered and quarantined by the supervisor.
type PointFunc func(k Key, budget sim.Budget) (metrics.Summary, error)

// Options configure supervision.
type Options struct {
	// Workers bounds concurrent points (0 = GOMAXPROCS, 1 = serial).
	Workers int
	// Budget bounds each point's run. A zero budget still arms the
	// livelock watchdog at sim.DefaultLivelockEvents — supervision
	// without a hang detector would supervise nothing.
	Budget sim.Budget
	// OnEvent, when non-nil, receives one human-readable line per
	// quarantine, serialized.
	OnEvent func(string)
	// OnPoint, when non-nil, receives sweep progress after each point
	// settles: how many of the sweep's points have finished (done of
	// total). Calls are serialized. Only Sweep invokes it; Supervise
	// runs a single point and has no grid to report on.
	OnPoint func(done, total int)
}

func (o *Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// budget returns the effective budget: the configured one, with the
// livelock watchdog always armed.
func (o *Options) budget() sim.Budget {
	b := o.Budget
	if b.LivelockEvents == 0 {
		b.LivelockEvents = sim.DefaultLivelockEvents
	}
	return b
}

// Stats summarize one supervised sweep.
type Stats struct {
	// Points is the grid size; Completed counts done points,
	// Quarantined the failed ones.
	Points      int
	Completed   int
	Quarantined int
}

// Supervise executes one point once under the options' budget and
// returns its record. A point failure is in the Record, never a panic
// or a process exit, because one bad point must not look like a broken
// run.
func Supervise(k Key, run PointFunc, opts Options) Record {
	rec := Record{Key: k}
	sum, err := callPoint(run, k, opts.budget())
	if err == nil {
		rec.Status = StatusDone
		rec.Summary = &sum
		return rec
	}
	rec.Status = StatusFailed
	rec.Error = err.Error()
	var pe *panicError
	if errors.As(err, &pe) {
		rec.Panicked = true
		rec.Stack = pe.stack
		opts.emit(fmt.Sprintf("%s: QUARANTINED (panic): %v", k, pe.value))
	} else {
		opts.emit(fmt.Sprintf("%s: QUARANTINED: %v", k, err))
	}
	return rec
}

// Sweep supervises every key through a bounded worker pool and returns
// the records in key order plus aggregate stats. Per-point failures are
// quarantined records, so the error result is always nil.
func Sweep(keys []Key, run PointFunc, opts Options) ([]Record, Stats, error) {
	recs := make([]Record, len(keys))
	sem := make(chan struct{}, opts.workers())
	var (
		wg     sync.WaitGroup
		doneMu sync.Mutex
		done   int
	)
	for i, k := range keys {
		wg.Add(1)
		go func(i int, k Key) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			recs[i] = Supervise(k, run, opts)
			if opts.OnPoint != nil {
				doneMu.Lock()
				done++
				opts.OnPoint(done, len(keys))
				doneMu.Unlock()
			}
		}(i, k)
	}
	wg.Wait()

	stats := Stats{Points: len(recs)}
	for _, r := range recs {
		if r.Status == StatusDone {
			stats.Completed++
		} else {
			stats.Quarantined++
		}
	}
	return recs, stats, nil
}

// emit serializes OnEvent callbacks (points finish on pool goroutines).
var emitMu sync.Mutex

func (o *Options) emit(line string) {
	if o.OnEvent == nil {
		return
	}
	emitMu.Lock()
	defer emitMu.Unlock()
	o.OnEvent(line)
}

// panicError marks a panic recovered from a PointFunc.
type panicError struct {
	value string
	stack string
}

func (e *panicError) Error() string { return "runner: point panicked: " + e.value }

// runGate bounds the points executing at once across the whole
// process. Concurrent sweeps (cmd/figures runs several figures, each
// with its own worker pool) all funnel through this one GOMAXPROCS-sized
// gate, so nested parallel layers fan out freely without
// oversubscribing the CPUs the way stacked per-call semaphores would.
var runGate = make(chan struct{}, runtime.GOMAXPROCS(0))

// callPoint runs one point behind a recover boundary, holding a slot
// of the run gate.
func callPoint(run PointFunc, k Key, b sim.Budget) (sum metrics.Summary, err error) {
	runGate <- struct{}{}
	defer func() { <-runGate }()
	defer func() {
		if p := recover(); p != nil {
			err = &panicError{value: fmt.Sprint(p), stack: string(debug.Stack())}
		}
	}()
	return run(k, b)
}
