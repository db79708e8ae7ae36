package sim

import (
	"errors"
	"fmt"
	"time"
)

// ErrBudgetExceeded is the sentinel every budget abort wraps. Callers
// classify an aborted run with errors.Is(err, sim.ErrBudgetExceeded)
// and read the specifics from the *BudgetError in the chain.
var ErrBudgetExceeded = errors.New("sim: budget exceeded")

// Budget abort reasons, carried in BudgetError.Reason.
const (
	// BudgetDeadline: cumulative wall-clock time inside Run passed the
	// configured deadline.
	BudgetDeadline = "deadline"
	// BudgetMaxEvents: the engine executed its event cap.
	BudgetMaxEvents = "max-events"
	// BudgetLivelock: the livelock detector tripped — simulation time
	// stopped advancing across LivelockEvents consecutive events.
	BudgetLivelock = "livelock"
)

// DefaultLivelockEvents is the livelock window applied when a budget is
// enabled without an explicit LivelockEvents. A healthy slotted-MAC run
// executes at most a few events per node per instant; a million events
// with simulation time frozen is a spinning protocol, not a busy one.
const DefaultLivelockEvents = 1 << 20

// deadlineCheckMask throttles the wall-clock syscall in the run loop:
// the deadline is only consulted every (mask+1) events.
const deadlineCheckMask = 1<<10 - 1

// Budget bounds a run so pathological parameter corners abort with a
// structured error instead of spinning forever. The zero Budget
// disables every check (Enabled reports false) and costs the run loop
// one predictable branch per event.
type Budget struct {
	// Deadline caps cumulative wall-clock time spent inside Run
	// (0 = unbounded). It is checked every few hundred events, so very
	// slow individual events can overshoot slightly.
	Deadline time.Duration
	// MaxEvents caps the total number of events executed over the
	// engine's lifetime (0 = unbounded).
	MaxEvents uint64
	// LivelockEvents is the watchdog window: executing this many
	// consecutive events without simulation time advancing aborts the
	// run as livelocked (0 = detector off).
	LivelockEvents uint64
}

// Enabled reports whether any budget check is active.
func (b Budget) Enabled() bool {
	return b.Deadline > 0 || b.MaxEvents > 0 || b.LivelockEvents > 0
}

// BudgetError reports which budget a run exhausted and where it stood.
// It wraps ErrBudgetExceeded.
type BudgetError struct {
	// Reason is one of BudgetDeadline, BudgetMaxEvents, BudgetLivelock.
	Reason string
	// Events is the number of events executed when the budget tripped.
	Events uint64
	// At is the simulation time of the abort.
	At Time
	// Elapsed is the cumulative wall-clock time spent inside Run.
	Elapsed time.Duration
}

// Error implements error.
func (e *BudgetError) Error() string {
	return fmt.Sprintf("sim: budget exceeded (%s) after %d events at sim time %v (wall %v)",
		e.Reason, e.Events, e.At, e.Elapsed.Truncate(time.Microsecond))
}

// Unwrap makes errors.Is(err, ErrBudgetExceeded) hold.
func (e *BudgetError) Unwrap() error { return ErrBudgetExceeded }

// SetBudget installs (or, with the zero Budget, removes) the run
// budget and clears any previous budget abort. The budget spans the
// engine's lifetime: MaxEvents counts all executed events and Deadline
// all wall-clock time inside Run, not just the next call.
func (e *Engine) SetBudget(b Budget) {
	e.budget = b
	e.budgetOn = b.Enabled()
	e.budgetErr = nil
	e.instCount = 0
	e.instValid = false
}

// BudgetErr returns the budget abort that stopped the last Run, or nil.
// Once set it persists (and blocks further Run calls) until SetBudget
// resets it: a budget-aborted engine is mid-event-stream and its state
// is only safe to inspect, not to resume blindly.
func (e *Engine) BudgetErr() error {
	if e.budgetErr == nil {
		return nil // avoid a typed-nil error interface
	}
	return e.budgetErr
}

// checkBudget is consulted once per event, before execution, with the
// event's instant. It returns the abort to record, or nil.
func (e *Engine) checkBudget(at Time) *BudgetError {
	b := &e.budget
	if b.MaxEvents > 0 && e.executed >= b.MaxEvents {
		return e.budgetError(BudgetMaxEvents, at)
	}
	if b.LivelockEvents > 0 {
		if e.instValid && at == e.instAt {
			e.instCount++
			if e.instCount >= b.LivelockEvents {
				return e.budgetError(BudgetLivelock, at)
			}
		} else {
			e.instAt = at
			e.instValid = true
			e.instCount = 0
		}
	}
	if b.Deadline > 0 && e.executed&deadlineCheckMask == 0 {
		if elapsed := e.wallAccum + time.Since(e.runStart); elapsed > b.Deadline {
			return e.budgetError(BudgetDeadline, at)
		}
	}
	return nil
}

func (e *Engine) budgetError(reason string, at Time) *BudgetError {
	elapsed := e.wallAccum
	if e.inRun {
		elapsed += time.Since(e.runStart)
	}
	return &BudgetError{Reason: reason, Events: e.executed, At: at, Elapsed: elapsed}
}
