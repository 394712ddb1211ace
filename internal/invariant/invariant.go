// Package invariant is the runtime invariant-checking layer of the
// simulator: a registry of conservation-law and consistency checks that the
// sim package evaluates at a configurable cycle granularity (the epoch) and
// once more at the end of a run.
//
// The checks themselves live next to the state they inspect (the power
// meter verifies its own energy ledgers, the PTB balancer its token
// conservation, the cache hierarchy its MOESI directory, and so on); this
// package only provides the harness: registration, epoch gating, violation
// collection with a cap, and a typed error wrapping the ErrViolated
// sentinel so callers can branch with errors.Is.
//
// Checking is strictly opt-in. A disabled run carries a nil *Checker and
// pays one pointer comparison per simulated cycle; see DESIGN.md §8 for
// the per-invariant cost when enabled.
package invariant

import (
	"errors"
	"fmt"
	"strings"
)

// ErrViolated is the sentinel wrapped by every invariant-violation error.
var ErrViolated = errors.New("invariant violated")

// DefaultEpoch is the default check granularity in cycles. It is chosen so
// that a full-length run evaluates every invariant tens of thousands of
// times while the walk over directory and ledger state stays far below 1%
// of simulation time.
const DefaultEpoch = 1024

// maxRecorded caps the violations kept per run; one broken conservation
// law re-fires every epoch, and the first few occurrences carry all the
// signal.
const maxRecorded = 32

// CheckFunc inspects component state and returns nil when the invariant
// holds, or a descriptive error when it does not. Checks must not mutate
// simulation state.
type CheckFunc func() error

// Violation is one failed evaluation of a registered check.
type Violation struct {
	// Cycle is the simulation cycle at which the check ran.
	Cycle int64
	// Check is the registered name of the failed invariant.
	Check string
	// Err describes the violation.
	Err error
}

func (v Violation) String() string {
	return fmt.Sprintf("cycle %d: %s: %v", v.Cycle, v.Check, v.Err)
}

type check struct {
	name      string
	fn        CheckFunc
	finalOnly bool
}

// Checker evaluates registered invariants at epoch boundaries and collects
// violations. The zero value is not usable; construct with New. A nil
// *Checker is the disabled state: Tick and Finalize on nil are no-ops.
type Checker struct {
	epoch  int64
	checks []check
	// next is the first epoch boundary after the last cycle ticked.
	next int64

	viols   []Violation
	dropped int64
	evals   int64
}

// New returns a checker evaluating at the given cycle granularity
// (epoch < 1 selects DefaultEpoch).
func New(epoch int64) *Checker {
	if epoch < 1 {
		epoch = DefaultEpoch
	}
	return &Checker{epoch: epoch}
}

// Epoch returns the check granularity in cycles.
func (c *Checker) Epoch() int64 { return c.epoch }

// Register adds an invariant evaluated at every epoch boundary and once
// more by Finalize. Registration order is evaluation order.
func (c *Checker) Register(name string, fn CheckFunc) {
	c.checks = append(c.checks, check{name: name, fn: fn})
}

// RegisterFinal adds an invariant evaluated only by Finalize — for
// identities that need the run to be complete (or the uncore quiescent)
// to hold exactly.
func (c *Checker) RegisterFinal(name string, fn CheckFunc) {
	c.checks = append(c.checks, check{name: name, fn: fn, finalOnly: true})
}

// Tick evaluates the epoch checks if cycle falls on an epoch boundary
// (cycle%epoch == 0). Safe on a nil receiver (disabled checking). Ticking
// consecutive cycles costs one comparison between boundaries; any other
// cycle sequence re-anchors on the modulo.
func (c *Checker) Tick(cycle int64) {
	if c == nil {
		return
	}
	if cycle != c.next {
		if cycle < c.next && cycle > c.next-c.epoch {
			return
		}
		if r := cycle % c.epoch; r != 0 {
			c.next = cycle - r
			if cycle > 0 {
				c.next += c.epoch
			}
			return
		}
	}
	c.next = cycle + c.epoch
	c.run(cycle, false)
}

// Finalize evaluates every check (epoch and final-only) once, in
// registration order, at the end of a run. Safe on a nil receiver.
func (c *Checker) Finalize(cycle int64) {
	if c == nil {
		return
	}
	c.run(cycle, true)
}

func (c *Checker) run(cycle int64, final bool) {
	for i := range c.checks {
		ck := &c.checks[i]
		if ck.finalOnly && !final {
			continue
		}
		c.evals++
		if err := ck.fn(); err != nil {
			c.record(Violation{Cycle: cycle, Check: ck.name, Err: err})
		}
	}
}

func (c *Checker) record(v Violation) {
	if len(c.viols) >= maxRecorded {
		c.dropped++
		return
	}
	c.viols = append(c.viols, v)
}

// Violations returns the recorded violations in detection order (capped;
// see Err for the number dropped beyond the cap).
func (c *Checker) Violations() []Violation {
	if c == nil {
		return nil
	}
	return c.viols
}

// Evals returns how many individual check evaluations ran (stats for
// overhead accounting and tests).
func (c *Checker) Evals() int64 {
	if c == nil {
		return 0
	}
	return c.evals
}

// Err returns nil when every evaluation passed, or a *ViolationError
// wrapping ErrViolated otherwise. Safe on a nil receiver.
func (c *Checker) Err() error {
	if c == nil || len(c.viols) == 0 {
		return nil
	}
	return &ViolationError{Violations: c.viols, Dropped: c.dropped}
}

// ViolationError reports every recorded invariant violation of a run.
type ViolationError struct {
	Violations []Violation
	// Dropped counts violations beyond the recording cap.
	Dropped int64
}

// Error lists the violations, one per line after the summary.
func (e *ViolationError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d invariant violation(s)", len(e.Violations))
	if e.Dropped > 0 {
		fmt.Fprintf(&b, " (+%d beyond cap)", e.Dropped)
	}
	for _, v := range e.Violations {
		b.WriteString("\n  ")
		b.WriteString(v.String())
	}
	return b.String()
}

// Unwrap makes errors.Is(err, ErrViolated) true for every ViolationError.
func (e *ViolationError) Unwrap() error { return ErrViolated }

// CloseTo reports whether two accumulated floating-point quantities agree
// within the tolerance used by the conservation checks: a relative epsilon
// that scales with magnitude plus a small absolute floor for near-zero
// sums. Float accumulation across millions of cycles legitimately drifts
// by a few ULPs per addition; rtol covers that while still catching any
// real accounting bug (which shows up as whole events, many orders of
// magnitude larger).
func CloseTo(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	m := a
	if m < 0 {
		m = -m
	}
	if x := b; x < 0 {
		x = -x
		if x > m {
			m = x
		}
	} else if x > m {
		m = x
	}
	const rtol, atol = 1e-9, 1e-6
	return d <= rtol*m+atol
}
