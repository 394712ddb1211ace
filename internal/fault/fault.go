// Package fault is the deterministic fault-injection engine of the
// simulator: a seeded source of "does this fault fire here?" decisions that
// the component packages consult at well-defined perturbation points. The
// paper assumes ideal PTB hardware — token counts always reach the global
// balancer, budget updates always return within the Table-2 latencies, the
// power sensors are exact and DVFS transitions never fail. Real CMP
// power-management networks drop, delay and corrupt messages; this package
// models those non-idealities so the reproduction's claims can be measured
// under them (and so the graceful-degradation machinery in internal/core
// has something to degrade against).
//
// Design rules:
//
//   - Determinism. Every decision comes from an xrand stream derived from
//     Spec.Seed, and each fault domain (token exchange, NoC links, power
//     sensors, DVFS) gets an independent split, so enabling one fault kind
//     never perturbs another kind's stream. Two runs with the same seed and
//     rates inject byte-identical fault sequences.
//   - Zero rates are the identity. An injector whose rates are all zero
//     never fires, and the components are written so the all-zero Spec
//     reproduces the un-faulted simulation bit for bit (the golden tests
//     assert exactly that).
//   - Faults are modeled, not corrupting. An injected fault changes what a
//     component *observes* (a lost report, a stalled link, a noisy sensor),
//     never the ground-truth energy or token ledgers — every conservation
//     invariant must keep holding with injection enabled.
//
// The decision engines live here; the perturbation code lives next to the
// state it perturbs (internal/core, internal/mesh, internal/power,
// internal/dvfs).
package fault

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"ptbsim/internal/xrand"
)

// ErrBadSpec is the sentinel wrapped by every Spec validation and Parse
// error; branch with errors.Is. Spec is the public ptbsim.FaultSpec, so
// its errors read "ptbsim: invalid fault spec: <detail>" like the other
// ptbsim parsers.
var ErrBadSpec = errors.New("invalid fault spec")

// Defaults for the tunable parameters (applied when the field is zero).
const (
	// DefaultStaleTimeout is how many cycles a core's token report may be
	// stale before the balancer's watchdog falls back to the core's static
	// per-core share.
	DefaultStaleTimeout = 64
	// DefaultMaxRetries bounds the balancer's retransmit attempts for a
	// dropped token batch; past the bound the batch is recorded as lost.
	DefaultMaxRetries = 3
	// DefaultRetryBackoff is the base retransmit backoff in cycles; it
	// doubles per attempt (8, 16, 32, …).
	DefaultRetryBackoff = 8
	// DefaultTokenDelayCycles is the extra latency of a delayed token batch.
	DefaultTokenDelayCycles = 16
	// DefaultLinkStallCycles is the duration of one injected NoC link stall.
	DefaultLinkStallCycles = 16
)

// neverStale is the watchdog timeout used when the watchdog is disabled.
const neverStale = int64(1) << 62

// Spec declares the fault-injection rates and parameters of one run; the
// public API exposes it as ptbsim.FaultSpec. The zero Spec injects nothing,
// and a run under the zero spec is bit-identical to a run with no spec at
// all (the golden tests assert the digests match byte for byte). Rates are
// probabilities in [0, 1]; cycle counts and retry bounds left at zero
// select the package defaults, and negative values disable the
// corresponding mechanism.
//
// Injection is deterministic: the same Seed and rates reproduce the same
// fault sequence, and each fault domain (token exchange, NoC links, power
// sensors, DVFS) draws from an independent stream, so enabling one kind of
// fault never perturbs another kind's decisions. Faults change what the
// controllers observe — a lost report, a stalled link, a noisy sensor —
// never the ground-truth energy or token ledgers, so every conservation
// invariant keeps holding with injection enabled.
//
// A Spec travels on the wire as its String form (MarshalText), so a
// Config's fault spec is one JSON string and the zero spec is "".
type Spec struct {
	// Seed seeds the injector's random streams (0 selects a fixed non-zero
	// constant, so runs stay deterministic either way).
	Seed uint64

	// TokenDrop is the loss probability of one PTB token message: applied
	// per core per cycle to the spare-token report toward the balancer and
	// per delivery attempt to each in-flight token batch. Dropped batches
	// are retransmitted with exponential backoff up to MaxRetries times,
	// then recorded as lost; cores whose reports go stale past StaleTimeout
	// are handled by the balancer's watchdog, which falls back to their
	// static per-core share. Either event marks the run Degraded.
	TokenDrop float64
	// TokenDelay is the probability a token batch is delayed by
	// TokenDelayCycles beyond its normal transfer latency.
	TokenDelay float64
	// TokenDup is the probability a token batch is duplicated in flight
	// (the balancer receives it twice; the extra energy is tracked in
	// Result.TokenDupPJ).
	TokenDup float64
	// TokenDelayCycles is the extra delay of a delayed batch
	// (0 = DefaultTokenDelayCycles, 16).
	TokenDelayCycles int64
	// StaleTimeout is the balancer watchdog threshold in cycles
	// (0 = DefaultStaleTimeout, 64; negative = watchdog disabled).
	StaleTimeout int64
	// MaxRetries bounds batch retransmissions (0 = DefaultMaxRetries, 3;
	// negative = no retries: a dropped batch is immediately lost).
	MaxRetries int
	// RetryBackoff is the base retransmit backoff in cycles, doubling per
	// attempt (0 = DefaultRetryBackoff, 8, giving 8, 16, 32, …).
	RetryBackoff int64

	// LinkStall is the per-link-traversal probability of a transient NoC
	// stall of LinkStallCycles.
	LinkStall float64
	// LinkStallCycles is the stall duration (0 = DefaultLinkStallCycles,
	// 16).
	LinkStallCycles int64
	// FlitCorrupt is the per-link-traversal probability of detected flit
	// corruption; the flits are retransmitted across the link, doubling its
	// serialization time and link/router energy for that hop.
	FlitCorrupt float64

	// SensorNoise is the relative amplitude of white noise on the per-core
	// power-sensor readings (0.05 = readings jitter within ±5%).
	SensorNoise float64
	// SensorDrift bounds each sensor's slow calibration drift: a bounded
	// random walk within ±SensorDrift.
	SensorDrift float64

	// DVFSGlitch is the per-transition probability that a DVFS mode change
	// fails: the core pays the transition stall but keeps its current
	// operating point until the next window.
	DVFSGlitch float64
}

// Zero reports whether the spec injects nothing (all rates zero); the
// parameters (seed, timeouts, retry bounds) are ignored.
func (s Spec) Zero() bool {
	return s.TokenDrop == 0 && s.TokenDelay == 0 && s.TokenDup == 0 &&
		s.LinkStall == 0 && s.FlitCorrupt == 0 &&
		s.SensorNoise == 0 && s.SensorDrift == 0 && s.DVFSGlitch == 0
}

// Validate checks every rate and parameter; errors wrap ErrBadSpec.
func (s Spec) Validate() error {
	rates := []struct {
		name string
		v    float64
	}{
		{"drop", s.TokenDrop}, {"delay", s.TokenDelay}, {"dup", s.TokenDup},
		{"stall", s.LinkStall}, {"corrupt", s.FlitCorrupt},
		{"noise", s.SensorNoise}, {"drift", s.SensorDrift},
		{"glitch", s.DVFSGlitch},
	}
	for _, r := range rates {
		if r.v < 0 || r.v > 1 || math.IsNaN(r.v) {
			return fmt.Errorf("ptbsim: %w: %s=%v outside [0, 1]", ErrBadSpec, r.name, r.v)
		}
	}
	return nil
}

// withDefaults resolves the zero-means-default and negative-means-disabled
// parameter conventions into directly usable values.
func (s Spec) withDefaults() Spec {
	switch {
	case s.TokenDelayCycles == 0:
		s.TokenDelayCycles = DefaultTokenDelayCycles
	case s.TokenDelayCycles < 0:
		s.TokenDelayCycles = 0
	}
	switch {
	case s.StaleTimeout == 0:
		s.StaleTimeout = DefaultStaleTimeout
	case s.StaleTimeout < 0:
		s.StaleTimeout = neverStale
	}
	switch {
	case s.MaxRetries == 0:
		s.MaxRetries = DefaultMaxRetries
	case s.MaxRetries < 0:
		s.MaxRetries = 0
	}
	if s.RetryBackoff <= 0 {
		s.RetryBackoff = DefaultRetryBackoff
	}
	switch {
	case s.LinkStallCycles == 0:
		s.LinkStallCycles = DefaultLinkStallCycles
	case s.LinkStallCycles < 0:
		s.LinkStallCycles = 0
	}
	return s
}

// specKeys maps the Parse/String key set onto Spec fields. Kept in one
// table so the parser, the canonical encoder and the error message can
// never disagree about the vocabulary.
var specKeys = []string{
	"seed", "drop", "delay", "dup", "delaycycles", "stale", "retries",
	"backoff", "stall", "stallcycles", "corrupt", "noise", "drift", "glitch",
}

// Parse builds a Spec from a comma-separated key=value list, e.g.
//
//	"seed=42,drop=0.1,stall=0.05,noise=0.02"
//
// Keys (all optional): seed, drop, delay, dup, delaycycles, stale, retries,
// backoff, stall, stallcycles, corrupt, noise, drift, glitch. Unknown or
// repeated keys and malformed values return an error wrapping ErrBadSpec;
// the empty string parses to the zero Spec.
func Parse(in string) (Spec, error) {
	var s Spec
	trimmed := strings.TrimSpace(in)
	if trimmed == "" {
		return s, nil
	}
	seen := map[string]bool{}
	for _, part := range strings.Split(trimmed, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			return s, fmt.Errorf("ptbsim: %w: empty clause in %q", ErrBadSpec, in)
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return s, fmt.Errorf("ptbsim: %w: clause %q is not key=value", ErrBadSpec, part)
		}
		k = strings.ToLower(strings.TrimSpace(k))
		v = strings.TrimSpace(v)
		if seen[k] {
			return s, fmt.Errorf("ptbsim: %w: repeated key %q", ErrBadSpec, k)
		}
		seen[k] = true
		var err error
		switch k {
		case "seed":
			s.Seed, err = strconv.ParseUint(v, 0, 64)
		case "drop":
			s.TokenDrop, err = parseRate(v)
		case "delay":
			s.TokenDelay, err = parseRate(v)
		case "dup":
			s.TokenDup, err = parseRate(v)
		case "delaycycles":
			s.TokenDelayCycles, err = strconv.ParseInt(v, 10, 64)
		case "stale":
			s.StaleTimeout, err = strconv.ParseInt(v, 10, 64)
		case "retries":
			var n int64
			n, err = strconv.ParseInt(v, 10, 32)
			s.MaxRetries = int(n)
		case "backoff":
			s.RetryBackoff, err = strconv.ParseInt(v, 10, 64)
		case "stall":
			s.LinkStall, err = parseRate(v)
		case "stallcycles":
			s.LinkStallCycles, err = strconv.ParseInt(v, 10, 64)
		case "corrupt":
			s.FlitCorrupt, err = parseRate(v)
		case "noise":
			s.SensorNoise, err = parseRate(v)
		case "drift":
			s.SensorDrift, err = parseRate(v)
		case "glitch":
			s.DVFSGlitch, err = parseRate(v)
		default:
			return s, fmt.Errorf("ptbsim: %w: unknown key %q (valid: %s)",
				ErrBadSpec, k, strings.Join(specKeys, ", "))
		}
		if err != nil {
			return s, fmt.Errorf("ptbsim: %w: %s=%q: %v", ErrBadSpec, k, v, err)
		}
	}
	if err := s.Validate(); err != nil {
		return s, err
	}
	return s, nil
}

func parseRate(v string) (float64, error) {
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, err
	}
	if f < 0 || f > 1 || math.IsNaN(f) {
		return 0, fmt.Errorf("rate %v outside [0, 1]", f)
	}
	return f, nil
}

// String renders the spec in Parse's syntax, omitting zero fields, in a
// deterministic key order — usable as a cache key and round-trippable
// through Parse. The zero Spec renders as "".
func (s Spec) String() string {
	m := map[string]string{}
	if s.Seed != 0 {
		m["seed"] = strconv.FormatUint(s.Seed, 10)
	}
	rate := func(k string, v float64) {
		if v != 0 {
			m[k] = strconv.FormatFloat(v, 'g', -1, 64)
		}
	}
	num := func(k string, v int64) {
		if v != 0 {
			m[k] = strconv.FormatInt(v, 10)
		}
	}
	rate("drop", s.TokenDrop)
	rate("delay", s.TokenDelay)
	rate("dup", s.TokenDup)
	num("delaycycles", s.TokenDelayCycles)
	num("stale", s.StaleTimeout)
	num("retries", int64(s.MaxRetries))
	num("backoff", s.RetryBackoff)
	rate("stall", s.LinkStall)
	num("stallcycles", s.LinkStallCycles)
	rate("corrupt", s.FlitCorrupt)
	rate("noise", s.SensorNoise)
	rate("drift", s.SensorDrift)
	rate("glitch", s.DVFSGlitch)
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + m[k]
	}
	return strings.Join(parts, ",")
}

// MarshalText encodes the spec as its String form.
func (s Spec) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText decodes Parse's syntax; errors wrap ErrBadSpec.
func (s *Spec) UnmarshalText(b []byte) error {
	v, err := Parse(string(b))
	if err != nil {
		return err
	}
	*s = v
	return nil
}

// Injector is one run's fault source: four independent decision streams,
// one per fault domain, derived from the spec's seed. Construct one per
// simulation; the streams are not safe for concurrent use (simulations are
// single-threaded).
type Injector struct {
	spec   Spec
	token  *TokenInjector
	link   *LinkInjector
	sensor *SensorInjector
	dvfs   *DVFSInjector
}

// NewInjector builds the injector for a validated spec.
func NewInjector(s Spec) *Injector {
	s = s.withDefaults()
	master := xrand.New(s.Seed)
	return &Injector{
		spec: s,
		// Split order is part of the determinism contract: token, link,
		// sensor, dvfs. Each domain owns its stream, so rates in one domain
		// never shift another domain's decisions.
		token: &TokenInjector{
			rng: master.Split(), drop: s.TokenDrop, delay: s.TokenDelay,
			dup: s.TokenDup, delayCycles: s.TokenDelayCycles,
			staleTimeout: s.StaleTimeout, maxRetries: s.MaxRetries,
			backoff: s.RetryBackoff,
		},
		link: &LinkInjector{
			rng: master.Split(), stall: s.LinkStall,
			stallCycles: s.LinkStallCycles, corrupt: s.FlitCorrupt,
		},
		sensor: &SensorInjector{
			rng: master.Split(), noise: s.SensorNoise, driftMax: s.SensorDrift,
		},
		dvfs: &DVFSInjector{rng: master.Split(), glitch: s.DVFSGlitch},
	}
}

// Spec returns the (defaults-resolved) spec the injector was built from.
func (i *Injector) Spec() Spec { return i.spec }

// Token returns the PTB token-exchange fault stream.
func (i *Injector) Token() *TokenInjector { return i.token }

// Link returns the NoC link fault stream.
func (i *Injector) Link() *LinkInjector { return i.link }

// Sensor returns the power-sensor fault stream.
func (i *Injector) Sensor() *SensorInjector { return i.sensor }

// DVFS returns the DVFS-transition fault stream.
func (i *Injector) DVFS() *DVFSInjector { return i.dvfs }

// Fired returns the total number of faults injected across all domains.
func (i *Injector) Fired() int64 {
	return i.token.fired + i.link.fired + i.sensor.fired + i.dvfs.fired
}

// TokenInjector decides the PTB token-exchange faults: report loss on the
// core→balancer path and drop/delay/duplication of in-flight token batches,
// plus the graceful-degradation parameters the balancer applies.
type TokenInjector struct {
	rng          *xrand.Rand
	drop         float64
	delay        float64
	dup          float64
	delayCycles  int64
	staleTimeout int64
	maxRetries   int
	backoff      int64
	fired        int64
}

// ReportLost decides whether one core's spare-token report toward the
// balancer is lost this cycle.
func (t *TokenInjector) ReportLost() bool {
	if t.drop == 0 {
		return false
	}
	if t.rng.Bool(t.drop) {
		t.fired++
		return true
	}
	return false
}

// FlightDropped decides whether one delivery attempt of an in-flight token
// batch is lost.
func (t *TokenInjector) FlightDropped() bool {
	if t.drop == 0 {
		return false
	}
	if t.rng.Bool(t.drop) {
		t.fired++
		return true
	}
	return false
}

// FlightDelay returns the extra delay of a newly launched token batch
// (0 = on time).
func (t *TokenInjector) FlightDelay() int64 {
	if t.delay == 0 {
		return 0
	}
	if t.rng.Bool(t.delay) {
		t.fired++
		return t.delayCycles
	}
	return 0
}

// FlightDuplicated decides whether a newly launched token batch is
// duplicated in flight.
func (t *TokenInjector) FlightDuplicated() bool {
	if t.dup == 0 {
		return false
	}
	if t.rng.Bool(t.dup) {
		t.fired++
		return true
	}
	return false
}

// StaleTimeout is the balancer watchdog threshold in cycles.
func (t *TokenInjector) StaleTimeout() int64 { return t.staleTimeout }

// MaxRetries bounds retransmission attempts per token batch.
func (t *TokenInjector) MaxRetries() int { return t.maxRetries }

// Backoff returns the retransmit backoff before the given attempt
// (1-based), doubling per attempt: backoff, 2·backoff, 4·backoff, …
func (t *TokenInjector) Backoff(attempt int) int64 {
	if attempt < 1 {
		attempt = 1
	}
	if attempt > 32 {
		attempt = 32
	}
	return t.backoff << (attempt - 1)
}

// Fired returns how many token faults fired.
func (t *TokenInjector) Fired() int64 { return t.fired }

// LinkInjector decides the NoC link faults: transient stalls and detected
// flit corruption (handled by retransmission).
type LinkInjector struct {
	rng         *xrand.Rand
	stall       float64
	stallCycles int64
	corrupt     float64
	fired       int64
}

// Stall returns the stall duration injected into one link traversal
// (0 = none).
func (l *LinkInjector) Stall() int64 {
	if l.stall == 0 {
		return 0
	}
	if l.rng.Bool(l.stall) {
		l.fired++
		return l.stallCycles
	}
	return 0
}

// Corrupt decides whether one link traversal suffers detected flit
// corruption and must retransmit.
func (l *LinkInjector) Corrupt() bool {
	if l.corrupt == 0 {
		return false
	}
	if l.rng.Bool(l.corrupt) {
		l.fired++
		return true
	}
	return false
}

// Fired returns how many link faults fired.
func (l *LinkInjector) Fired() int64 { return l.fired }

// SensorInjector decides the power-sensor faults: white noise plus a
// bounded random-walk drift. The per-core drift state lives with the sensor
// model (power.NoisySensor); this stream only samples the steps.
type SensorInjector struct {
	rng      *xrand.Rand
	noise    float64
	driftMax float64
	fired    int64
}

// driftStepFrac is the random-walk step as a fraction of the drift bound:
// a sensor wanders across its full drift range in the order of a thousand
// samples, slow against the DVFS window but fast against a full run.
const driftStepFrac = 1.0 / 512

// Factor returns the multiplicative reading error for one sensor sample,
// advancing the caller's drift state. With zero noise and drift the factor
// is exactly 1.
func (s *SensorInjector) Factor(drift *float64) float64 {
	if s.noise == 0 && s.driftMax == 0 {
		return 1
	}
	s.fired++
	if s.driftMax > 0 {
		*drift += (s.rng.Float64()*2 - 1) * s.driftMax * driftStepFrac
		if *drift > s.driftMax {
			*drift = s.driftMax
		} else if *drift < -s.driftMax {
			*drift = -s.driftMax
		}
	}
	f := 1 + *drift
	if s.noise > 0 {
		f += (s.rng.Float64()*2 - 1) * s.noise
	}
	if f < 0 {
		f = 0
	}
	return f
}

// Fired returns how many perturbed sensor samples were produced.
func (s *SensorInjector) Fired() int64 { return s.fired }

// DVFSInjector decides DVFS-transition glitches.
type DVFSInjector struct {
	rng    *xrand.Rand
	glitch float64
	fired  int64
}

// Glitch decides whether one attempted mode transition glitches.
func (d *DVFSInjector) Glitch() bool {
	if d.glitch == 0 {
		return false
	}
	if d.rng.Bool(d.glitch) {
		d.fired++
		return true
	}
	return false
}

// Fired returns how many transition glitches fired.
func (d *DVFSInjector) Fired() int64 { return d.fired }
