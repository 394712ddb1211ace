package ptbsim

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"ptbsim/internal/sched"
	"ptbsim/internal/sim"
)

// Progress is one streamed update from an Experiment: a configuration
// finished (successfully, from cache, or with an error).
type Progress struct {
	// Config is the finished configuration (with the experiment's scale
	// and cycle-cap defaults applied).
	Config Config
	// Result is the run result, nil on error.
	Result *Result
	// Err is the run error, if any.
	Err error
	// Cached marks a result served from the experiment cache or coalesced
	// onto a concurrent run of the same configuration.
	Cached bool
	// Done and Total report sweep completion (1/1 for single Run calls).
	Done, Total int
}

// Experiment runs simulations through the parallel experiment engine:
// a bounded worker pool with per-configuration caching, single-flight
// deduplication (two goroutines asking for the same configuration share
// one simulation), context cancellation, panic recovery, and streaming
// progress. All methods are safe for concurrent use. Returned Results are
// shared across callers and must be treated as read-only.
type Experiment struct {
	scale       float64
	maxCycles   int64
	parallelism int
	invariants  bool
	faults      *FaultSpec
	progress    func(Progress)
	observer    Observer
	obsEvery    int64
	telemetry   *Telemetry // shared serialized Telemetry built from observer

	cacheBackend ResultCache // nil = default in-memory cache
	queueCap     int         // Submit queue bound; 0 = unbounded

	eng *sched.Scheduler[*Result]

	mu   sync.Mutex // serializes progress callbacks and the sweep counter
	done int
}

// Option configures an Experiment.
type Option func(*Experiment)

// WithParallelism bounds the worker pool for sweeps (default
// runtime.NumCPU(); n < 1 selects that default too). Parallelism 1
// reproduces a fully serial sweep — results are identical either way,
// simulations being deterministic.
func WithParallelism(n int) Option {
	return func(e *Experiment) { e.parallelism = n }
}

// WithScale sets the workload scale applied to configs that leave
// WorkloadScale zero (1.0 = the Table-2 sizes).
func WithScale(scale float64) Option {
	return func(e *Experiment) { e.scale = scale }
}

// WithMaxCycles sets the cycle cap applied to configs that leave
// MaxCycles zero.
func WithMaxCycles(n int64) Option {
	return func(e *Experiment) { e.maxCycles = n }
}

// WithInvariants enables the runtime invariant layer on every run the
// experiment executes (configs that already set CheckInvariants keep it
// either way). A violation fails that run with an error wrapping
// ErrInvariantViolation. Checked runs produce identical Results — the
// checks only read simulation state — at a small simulation-speed cost.
func WithInvariants() Option {
	return func(e *Experiment) { e.invariants = true }
}

// WithFaults injects faults into every run the experiment executes whose
// config leaves Faults nil (configs that set their own spec keep it).
// The spec is part of the cache key, so faulted and ideal runs of the
// same configuration never share a result.
func WithFaults(spec FaultSpec) Option {
	return func(e *Experiment) { e.faults = &spec }
}

// WithProgress installs a streaming callback invoked once per finished
// configuration. Callbacks are serialized, so fn needs no locking of its
// own.
func WithProgress(fn func(Progress)) Option {
	return func(e *Experiment) { e.progress = fn }
}

// WithObserver streams epoch telemetry from every run the experiment
// executes into o, sampling every `every` cycles (0 = the default period):
// the sweep-level merged feed. Samples from concurrently simulating
// configurations interleave, serialized by the experiment so o needs no
// locking of its own; the per-sample run tags keep the feed unambiguous.
// If o also implements RunObserver, it additionally receives every
// Progress event, letting one sink (JSONLObserver does this) interleave
// run-completion records with the sample stream.
//
// Telemetry never enters the experiment's cache key — observation cannot
// change a result — so a configuration served from the cache (or coalesced
// onto a concurrent duplicate) emits no new samples, only its ObserveRun
// event with Cached set. Configs that set their own Observe keep it and
// bypass o.
func WithObserver(every int64, o Observer) Option {
	return func(e *Experiment) { e.observer = o; e.obsEvery = every }
}

// NewExperiment creates an experiment engine. Without options it runs
// paper-sized workloads (scale 1.0) on runtime.NumCPU() workers.
func NewExperiment(opts ...Option) *Experiment {
	e := &Experiment{parallelism: runtime.NumCPU()}
	for _, o := range opts {
		o(e)
	}
	if e.parallelism < 1 {
		e.parallelism = runtime.NumCPU()
	}
	if e.observer != nil {
		e.telemetry = &Telemetry{
			Every:    e.obsEvery,
			Observer: &lockedObserver{inner: e.observer},
		}
	}
	var engOpts []sched.Option[*Result]
	if e.cacheBackend != nil {
		engOpts = append(engOpts, sched.WithCache[*Result](e.cacheBackend))
	}
	if e.queueCap > 0 {
		engOpts = append(engOpts, sched.WithQueueCap[*Result](e.queueCap))
	}
	e.eng = sched.New[*Result](e.parallelism, engOpts...)
	return e
}

// Parallelism reports the sweep worker-pool bound.
func (e *Experiment) Parallelism() int { return e.parallelism }

// normalize applies the experiment-level defaults to cfg and collapses
// fields the simulation ignores, so equivalent configurations share one
// cache entry (Policy and PTB-only knobs only matter to the PTB family).
func (e *Experiment) normalize(cfg Config) Config {
	if cfg.WorkloadScale == 0 {
		cfg.WorkloadScale = e.scale
	}
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = e.maxCycles
	}
	if cfg.Technique == "" {
		cfg.Technique = None
	}
	if cfg.Technique != PTB && cfg.Technique != PTBSpinGate {
		cfg.Policy = ToAll
		cfg.PessimisticPTBLatency = false
		cfg.PTBClusterSize = 0
	}
	if e.invariants {
		cfg.CheckInvariants = true
	}
	if cfg.Faults == nil && e.faults != nil {
		cfg.Faults = e.faults
	}
	if cfg.Observe == nil && e.telemetry != nil {
		cfg.Observe = e.telemetry
	}
	return cfg
}

// key canonicalizes a normalized config into the engine cache key: its
// stable wire JSON (Config's json tags), which holds exactly the
// result-determining fields and round-trips every float64 bit-exactly, so
// two configs share a key only if they run the same simulation. Observe
// has no wire form and stays out: it cannot change a result. Callers
// validate cfg first, and Validate rejects the non-finite floats, the only
// values json.Marshal refuses.
func (e *Experiment) key(cfg Config) string {
	b, err := json.Marshal(cfg)
	if err != nil {
		panic(fmt.Sprintf("ptbsim: cache key: %v", err))
	}
	return string(b)
}

// execute runs one validated configuration. A timeout > 0 bounds its
// wall-clock time: a run still going at the deadline fails with an error
// wrapping ErrRunDeadline, while the caller's own cancellation stays a
// plain cancellation.
func (e *Experiment) execute(ctx context.Context, cfg Config, timeout time.Duration) (*Result, error) {
	if timeout <= 0 {
		return RunContext(ctx, cfg)
	}
	runCtx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	res, err := RunContext(runCtx, cfg)
	if err != nil && ctx.Err() == nil && errors.Is(runCtx.Err(), context.DeadlineExceeded) {
		return nil, fmt.Errorf("ptbsim: %w (%s): %v", ErrRunDeadline, timeout, err)
	}
	return res, err
}

// notifyLocked fans one progress event out to the WithProgress callback
// and the WithObserver run observer, if any. Callers hold e.mu, which is
// what serializes both (neither may call back into e).
func (e *Experiment) notifyLocked(p Progress) {
	if e.progress != nil {
		e.progress(p)
	}
	if ro, ok := e.observer.(RunObserver); ok {
		ro.ObserveRun(p)
	}
}

// emit delivers one progress event; the lock serializes concurrent
// callbacks from sweep workers.
func (e *Experiment) emit(p Progress) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.notifyLocked(p)
}

// Run returns the result for one configuration, simulating it at most
// once per experiment no matter how many goroutines ask concurrently.
func (e *Experiment) Run(ctx context.Context, cfg Config) (*Result, error) {
	cfg = e.normalize(cfg)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	fresh := false
	res, err := e.eng.Do(ctx, e.key(cfg), func(ctx context.Context) (*Result, error) {
		fresh = true
		return e.execute(ctx, cfg, 0)
	})
	e.emit(Progress{Config: cfg, Result: res, Err: err, Cached: err == nil && !fresh, Done: 1, Total: 1})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Base returns the no-control base case matching cfg (same benchmark,
// cores, budget and scale), the denominator of the paper's normalized
// metrics.
func (e *Experiment) Base(ctx context.Context, cfg Config) (*Result, error) {
	cfg.Technique = None
	cfg.Policy = ToAll
	cfg.RelaxFrac = 0
	return e.Run(ctx, cfg)
}

// ConfigError records the failure of one configuration in a sweep.
type ConfigError struct {
	// Index is the position of the failing configuration in the input
	// slice (RunAll) or the expanded cross-product (RunSweep).
	Index int
	// Config is the failing configuration, with the experiment defaults
	// applied.
	Config Config
	// Err is the underlying failure.
	Err error
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("config %d (%s/%d/%s): %v",
		e.Index, e.Config.Benchmark, e.Config.Cores, e.Config.Technique, e.Err)
}

// Unwrap exposes the underlying failure to errors.Is/errors.As.
func (e *ConfigError) Unwrap() error { return e.Err }

// SweepError aggregates every per-configuration failure of a partial
// sweep. It unwraps to all of them, so errors.Is(err, context.Canceled)
// or errors.Is(err, ErrInvariantViolation) answer "did any config fail
// that way", and errors.As(err, &configErr) recovers the first failure's
// detail.
type SweepError struct {
	// Total is the number of configurations attempted.
	Total int
	// Failures lists each failed configuration in input order.
	Failures []*ConfigError
}

func (e *SweepError) Error() string {
	return fmt.Sprintf("ptbsim: %d of %d sweep configs failed; first: %v",
		len(e.Failures), e.Total, e.Failures[0])
}

// Unwrap exposes every failure to errors.Is/errors.As.
func (e *SweepError) Unwrap() []error {
	out := make([]error, len(e.Failures))
	for i, f := range e.Failures {
		out[i] = f
	}
	return out
}

// RunAll executes every configuration on the worker pool and returns the
// results in input order. Duplicate configurations coalesce onto one
// simulation (both slots get the shared result).
//
// Sweeps are partial-result: one configuration failing — validation,
// invariant violation — does not stop the others, and every completable
// slot holds its result on return. Failed slots are nil, and the error is
// a *SweepError listing each failure with its index and configuration; it
// unwraps to all of them, so errors.Is still answers "did anything fail
// that way". Only the caller's context
// ends a sweep early (undispatched slots then fail with ctx.Err(), and
// the returned error wraps it).
func (e *Experiment) RunAll(ctx context.Context, cfgs []Config) ([]*Result, error) {
	results := make([]*Result, len(cfgs))
	errs := make([]error, len(cfgs))
	normed := make([]Config, len(cfgs))
	fresh := make([]bool, len(cfgs))
	var jobs []sched.Job[*Result]
	var jobIdx []int // job slot → cfgs index (invalid configs get no job)
	for i, cfg := range cfgs {
		cfg = e.normalize(cfg)
		normed[i] = cfg
		if err := cfg.Validate(); err != nil {
			errs[i] = err
			continue
		}
		i, cfg := i, cfg
		jobs = append(jobs, sched.Job[*Result]{
			Key: e.key(cfg),
			Run: func(ctx context.Context) (*Result, error) {
				fresh[i] = true
				return e.execute(ctx, cfg, 0)
			},
		})
		jobIdx = append(jobIdx, i)
	}
	total := len(cfgs)
	e.mu.Lock()
	e.done = 0
	e.mu.Unlock()
	// Invalid configurations are reported up front, before any simulation
	// runs; they occupy their slot in the Done/Total ramp like any other.
	for i, err := range errs {
		if err == nil {
			continue
		}
		e.mu.Lock()
		e.done++
		e.notifyLocked(Progress{Config: normed[i], Err: err, Done: e.done, Total: total})
		e.mu.Unlock()
	}
	vals, jobErrs := e.eng.ForEachAll(ctx, jobs, func(j int, res *Result, err error) {
		i := jobIdx[j]
		if err != nil && ctx.Err() != nil {
			return // cancellation noise; reported by the returned error
		}
		e.mu.Lock()
		e.done++
		e.notifyLocked(Progress{Config: normed[i], Result: res, Err: err,
			Cached: err == nil && !fresh[i], Done: e.done, Total: total})
		e.mu.Unlock()
	})
	for j, i := range jobIdx {
		results[i], errs[i] = vals[j], jobErrs[j]
	}
	var failures []*ConfigError
	for i, err := range errs {
		if err != nil {
			failures = append(failures, &ConfigError{Index: i, Config: normed[i], Err: err})
		}
	}
	if len(failures) == 0 {
		return results, nil
	}
	return results, &SweepError{Total: total, Failures: failures}
}

// A Sweep declares a cross-product of configurations — the shape of the
// paper's evaluation. Zero-valued dimensions fall back to defaults, so the
// zero Sweep is the full headline grid: every Table-2 benchmark × the
// paper's core counts × the no-control base case.
type Sweep struct {
	// Benchmarks are Table-2 workload names (default: all 14).
	Benchmarks []string
	// CoreCounts are CMP sizes (default: 2, 4, 8, 16).
	CoreCounts []int
	// Techniques are the budget mechanisms (default: None).
	Techniques []Technique
	// Policies apply to the PTB-family techniques only; other techniques
	// contribute one configuration regardless (default: ToAll).
	Policies []Policy
	// RelaxFracs are trigger-threshold relaxations (default: 0).
	RelaxFracs []float64
	// BudgetFracs are global budgets as fractions of peak (default: the
	// paper's 0.5, expressed as the zero value).
	BudgetFracs []float64
}

// Configs expands the sweep into its configuration cross-product, in
// deterministic row-major order (benchmark, cores, budget, technique,
// policy, relax). Policy and relax dimensions collapse for techniques
// they cannot affect, so the list contains no redundant simulations.
func (s Sweep) Configs() []Config {
	benches := s.Benchmarks
	if len(benches) == 0 {
		for _, b := range Benchmarks() {
			benches = append(benches, b.Name)
		}
	}
	cores := s.CoreCounts
	if len(cores) == 0 {
		cores = []int{2, 4, 8, 16}
	}
	techs := s.Techniques
	if len(techs) == 0 {
		techs = []Technique{None}
	}
	policies := s.Policies
	if len(policies) == 0 {
		policies = []Policy{ToAll}
	}
	relaxes := s.RelaxFracs
	if len(relaxes) == 0 {
		relaxes = []float64{0}
	}
	budgets := s.BudgetFracs
	if len(budgets) == 0 {
		budgets = []float64{0}
	}
	var out []Config
	for _, b := range benches {
		for _, n := range cores {
			for _, bud := range budgets {
				for _, t := range techs {
					pols := policies
					if t != PTB && t != PTBSpinGate {
						pols = policies[:1]
					}
					rxs := relaxes
					if t == None || t == DVFS || t == DFS || t == MaxBIPS {
						// Only the throttling ladder (2level and the PTB
						// family on top of it) has a trigger to relax.
						rxs = relaxes[:1]
					}
					for _, p := range pols {
						for _, rx := range rxs {
							cfg := Config{
								Benchmark:  b,
								Cores:      n,
								Technique:  t,
								BudgetFrac: bud,
								RelaxFrac:  rx,
							}
							if t == PTB || t == PTBSpinGate {
								cfg.Policy = p
							}
							if t == None || t == DVFS || t == DFS || t == MaxBIPS {
								cfg.RelaxFrac = 0
							}
							out = append(out, cfg)
						}
					}
				}
			}
		}
	}
	return out
}

// RunSweep expands the sweep and executes it on the worker pool; see
// RunAll for ordering, partial-result, error and cancellation semantics.
func (e *Experiment) RunSweep(ctx context.Context, s Sweep) ([]*Result, error) {
	return e.RunAll(ctx, s.Configs())
}

// CoreCounts returns the CMP sizes the paper evaluates (2, 4, 8, 16).
func CoreCounts() []int { return sim.CoreCounts() }
