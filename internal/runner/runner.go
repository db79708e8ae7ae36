// Package runner is the supervision layer between the CLIs and the
// experiment/figures engines: it makes long multi-point runs
// survivable. A sweep is a grid of independent (sweep, protocol, x)
// points; the runner executes them through a worker pool with
//
//   - panic isolation — a panicking point is quarantined with its
//     stack instead of killing the process, and the remaining points
//     keep running;
//   - run budgets — each point executes under a sim.Budget (wall
//     deadline, event cap, livelock watchdog), so a pathological
//     parameter corner aborts with sim.ErrBudgetExceeded rather than
//     spinning forever;
//   - bounded retry — budget-aborted points are retried with an
//     exponentially loosened budget and wall-clock backoff;
//   - one run gate — every point attempt in the process, across all
//     concurrent sweeps, holds one slot of a GOMAXPROCS-sized gate;
//   - checkpoint/resume — finished points are journaled to a
//     crash-safe manifest (fsync'd JSONL), and a re-run with the same
//     configuration serves them from the journal. By the simulator's
//     determinism guarantees a resumed sweep's final tables are
//     bit-identical to an uninterrupted run's.
package runner

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"ewmac/internal/metrics"
	"ewmac/internal/sim"
)

// Key identifies one sweep point.
type Key struct {
	// Sweep names the grid (a figure ID, or "uansim" for single runs).
	Sweep string `json:"sweep"`
	// Protocol is the MAC under test.
	Protocol string `json:"protocol"`
	// X is the sweep variable's value (0 for single runs).
	X float64 `json:"x"`
}

func (k Key) String() string {
	return fmt.Sprintf("%s/%s/x=%g", k.Sweep, k.Protocol, k.X)
}

// Point statuses.
const (
	// StatusDone: the point completed and Summary is valid.
	StatusDone = "done"
	// StatusFailed: the point was quarantined (panic, exhausted
	// budget retries, or a non-retriable error).
	StatusFailed = "failed"
)

// Record is one supervised point's outcome — exactly what the
// manifest journals.
type Record struct {
	Key
	Status string `json:"status"`
	// Summary is the point's averaged metrics (nil when failed).
	Summary *metrics.Summary `json:"summary,omitempty"`
	// Error and Stack describe a failure; Stack is set for panics.
	Error string `json:"error,omitempty"`
	Stack string `json:"stack,omitempty"`
	// Panicked marks a quarantine caused by a recovered panic.
	Panicked bool `json:"panicked,omitempty"`
	// Attempts / Retries / BudgetAborts trace the supervision: total
	// executions, re-executions after transient aborts, and attempts
	// ended by the run budget.
	Attempts     int `json:"attempts,omitempty"`
	Retries      int `json:"retries,omitempty"`
	BudgetAborts int `json:"budget_aborts,omitempty"`
	// Resumed reports the record was served from the manifest rather
	// than executed in this process (never journaled: it is a property
	// of the reading run, not of the result).
	Resumed bool `json:"-"`
}

// PointFunc executes one point under the given budget and returns its
// averaged summary. It is called on a pool goroutine; panics are
// recovered and quarantined by the supervisor.
type PointFunc func(k Key, budget sim.Budget) (metrics.Summary, error)

// Options configure supervision.
type Options struct {
	// Workers bounds concurrent points (0 = GOMAXPROCS, 1 = serial).
	Workers int
	// Manifest, when non-nil, journals every finished point and serves
	// already-done points without re-execution.
	Manifest *Manifest
	// Budget bounds each point's first attempt; retries loosen it
	// exponentially (×2 per attempt). A zero budget still arms the
	// livelock watchdog at sim.DefaultLivelockEvents — supervision
	// without a hang detector would supervise nothing.
	Budget sim.Budget
	// Retries is the maximum number of re-executions after a
	// budget-aborted attempt (panics and other errors never retry).
	// The first retry waits retryBackoff, doubling per attempt.
	Retries int
	// OnEvent, when non-nil, receives one human-readable line per
	// supervision event (resume hit, retry, quarantine), serialized.
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

// budget returns the effective first-attempt budget: the configured
// one, with the livelock watchdog always armed.
func (o *Options) budget() sim.Budget {
	b := o.Budget
	if b.LivelockEvents == 0 {
		b.LivelockEvents = sim.DefaultLivelockEvents
	}
	return b
}

// Stats summarize one supervised sweep.
type Stats struct {
	// Points is the grid size; Completed counts done points (including
	// resumed ones), Quarantined the failed ones.
	Points      int
	Completed   int
	Quarantined int
	// Resumed counts points served from the manifest.
	Resumed int
	// Retries and BudgetAborts are summed over all points.
	Retries      int
	BudgetAborts int
}

// Supervise executes one point under the options' supervision policy
// and returns its record. The returned error reports journal I/O
// failures only — point failures are in the Record, because one bad
// point must not look like a broken run.
func Supervise(k Key, run PointFunc, opts Options) (Record, error) {
	if m := opts.Manifest; m != nil {
		if rec, ok := m.Lookup(k); ok && rec.Status == StatusDone {
			rec.Resumed = true
			opts.emit(fmt.Sprintf("%s: resumed from %s", k, m.Path()))
			return rec, nil
		}
	}

	rec := Record{Key: k}
	budget := opts.budget()
	for attempt := 0; ; attempt++ {
		rec.Attempts = attempt + 1
		sum, err := callPoint(run, k, budget.Scale(1<<uint(attempt)))
		if err == nil {
			rec.Status = StatusDone
			rec.Summary = &sum
			break
		}
		rec.Error = err.Error()

		var pe *panicError
		if errors.As(err, &pe) {
			rec.Status = StatusFailed
			rec.Panicked = true
			rec.Stack = pe.stack
			opts.emit(fmt.Sprintf("%s: QUARANTINED (panic): %v", k, pe.value))
			break
		}
		if errors.Is(err, sim.ErrBudgetExceeded) {
			rec.BudgetAborts++
			if attempt < opts.Retries {
				rec.Retries++
				opts.emit(fmt.Sprintf("%s: budget aborted (attempt %d), retrying with ×%d budget: %v",
					k, attempt+1, 2<<uint(attempt), err))
				time.Sleep(retryBackoff << uint(attempt))
				continue
			}
		}
		rec.Status = StatusFailed
		opts.emit(fmt.Sprintf("%s: QUARANTINED after %d attempt(s): %v", k, rec.Attempts, err))
		break
	}

	if m := opts.Manifest; m != nil {
		if err := m.Append(rec); err != nil {
			return rec, fmt.Errorf("runner: journaling %s: %w", k, err)
		}
	}
	return rec, nil
}

// Sweep supervises every key through a bounded worker pool and returns
// the records in key order plus aggregate stats. The error reports
// journal failures (first one wins); per-point failures are quarantined
// records, not errors.
func Sweep(keys []Key, run PointFunc, opts Options) ([]Record, Stats, error) {
	recs := make([]Record, len(keys))
	errs := make([]error, len(keys))
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
			recs[i], errs[i] = Supervise(k, run, opts)
			if opts.OnPoint != nil {
				doneMu.Lock()
				done++
				opts.OnPoint(done, len(keys))
				doneMu.Unlock()
			}
		}(i, k)
	}
	wg.Wait()

	var stats Stats
	stats.Points = len(recs)
	for _, r := range recs {
		switch r.Status {
		case StatusDone:
			stats.Completed++
		case StatusFailed:
			stats.Quarantined++
		}
		if r.Resumed {
			stats.Resumed++
		}
		stats.Retries += r.Retries
		stats.BudgetAborts += r.BudgetAborts
	}
	for _, err := range errs {
		if err != nil {
			return recs, stats, err
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

// retryBackoff is the wall-clock pause before a point's first retry.
const retryBackoff = 100 * time.Millisecond

// runGate bounds the point attempts executing at once across the whole
// process. Concurrent sweeps (cmd/figures runs several figures, each
// with its own worker pool) all funnel through this one GOMAXPROCS-sized
// gate, so nested parallel layers fan out freely without
// oversubscribing the CPUs the way stacked per-call semaphores would.
var runGate = make(chan struct{}, runtime.GOMAXPROCS(0))

// callPoint runs one attempt behind a recover boundary, holding a slot
// of the run gate; a retry's backoff sleep happens outside it.
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
