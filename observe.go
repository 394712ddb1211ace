package ptbsim

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"

	"ptbsim/internal/isa"
	"ptbsim/internal/obs"
)

// Sample is one epoch of telemetry: per-core power and token views, DVFS
// mode residency, sync-class occupancy, the PTB token-flow ledger, and NoC
// and cache pressure, stamped with the run's identity so merged sweep feeds
// stay self-describing. It is an alias of the engine's sample type, so any
// Observer plugs straight into the recorder with no per-sample conversion.
//
// The JSON field names on Sample are the stable wire schema shared by the
// JSONL sink, ptbsweep -render-telemetry and external tooling.
type Sample = obs.Sample

// Telemetry sampling defaults (see TelemetrySpec and Telemetry).
const (
	// DefaultTelemetryEvery is the sampling period in cycles when a
	// Telemetry leaves Every zero.
	DefaultTelemetryEvery = obs.DefaultEvery
)

// Observer consumes telemetry samples as a run records them. The *Sample
// passed to Observe is reused by the recorder for the next epoch, so it is
// only valid for the duration of the call — retain Clone()s, not pointers.
//
// Observers attached to a single run (Config.Observe) are called from
// that run's goroutine and need no locking. An observer shared across
// concurrent runs must serialize itself — WithObserver does this for you,
// and the bundled sinks (JSONLObserver, CSVObserver, MemoryObserver) are
// safe either way.
type Observer interface {
	Observe(s *Sample)
}

// RunObserver is optionally implemented by an Observer passed to
// WithObserver: ObserveRun is invoked once per finished configuration with
// the same Progress the WithProgress callback receives, letting one sink
// interleave run-completion records with the sample stream (JSONLObserver
// does). Calls are serialized by the experiment.
type RunObserver interface {
	ObserveRun(p Progress)
}

// Telemetry configures the observability layer of a run (Config.Observe):
// every Every cycles the simulator records one Sample and streams it to
// Observer, if set. A zero Every selects DefaultTelemetryEvery.
//
// Observation is passive — the recorder only reads simulation state — so a
// run produces bit-identical results with telemetry on or off; the golden
// digest matrix pins this. A config with Observe nil pays one nil check per
// simulated cycle.
type Telemetry struct {
	// Every is the sampling period in cycles (0 = DefaultTelemetryEvery).
	Every int64
	// Observer, when non-nil, receives every sample as it is recorded.
	Observer Observer
}

// validate checks the Telemetry knobs; errors wrap ErrBadTelemetrySpec.
func (t *Telemetry) validate() error {
	if t.Every < 0 {
		return fmt.Errorf("ptbsim: %w: negative sampling period %d", ErrBadTelemetrySpec, t.Every)
	}
	return nil
}

// internal maps the public Telemetry onto the engine's recorder config. An
// Observer satisfies the engine's sink interface directly (Sample is an
// alias), so no adaptation layer runs per sample.
func (t *Telemetry) internal() *obs.Config {
	if t == nil {
		return nil
	}
	return &obs.Config{Every: t.Every, Sink: t.Observer}
}

// lockedObserver serializes a shared observer across concurrent runs.
type lockedObserver struct {
	mu    sync.Mutex
	inner Observer
}

func (l *lockedObserver) Observe(s *Sample) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.inner.Observe(s)
}

// JSONLObserver streams telemetry as JSON Lines: one Sample object per
// line, in the stable wire schema, plus one run-completion record per
// finished configuration when driven by WithObserver (an object with a
// "run" key holding the Config, and "result"/"cached"/"error" fields).
// ReadTelemetry parses the format back. Safe for concurrent use; the first
// write error latches and is reported by Err.
//
// The format is a stable contract, independent of the Go API. Sample
// lines use the snake_case schema pinned on Sample's json tags. A
// run-completion line is told apart by its "run" key, which holds the
// Config wire form; its optional "result" is the Result wire form,
// including the self-verifying "digest". New keys may be added, but
// existing keys are never renamed, retyped or removed, so a stream
// written by any release stays parseable by ReadTelemetry in every later
// one.
type JSONLObserver struct {
	mu  sync.Mutex
	enc *json.Encoder
	err error
}

// NewJSONLObserver creates a JSONL sink writing to w. The caller owns w's
// buffering and closing; see TelemetrySpec.Start for the managed variant.
func NewJSONLObserver(w io.Writer) *JSONLObserver {
	return &JSONLObserver{enc: json.NewEncoder(w)}
}

// Observe writes one sample line.
func (o *JSONLObserver) Observe(s *Sample) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.err == nil {
		o.err = o.enc.Encode(s)
	}
}

// runRecord is the JSONL wire form of a run-completion event. The "run"
// key distinguishes these lines from samples (which never have one).
type runRecord struct {
	Run    Config  `json:"run"`
	Result *Result `json:"result,omitempty"`
	Cached bool    `json:"cached,omitempty"`
	Error  string  `json:"error,omitempty"`
}

// ObserveRun writes one run-completion record, implementing RunObserver.
func (o *JSONLObserver) ObserveRun(p Progress) {
	rec := runRecord{Run: p.Config, Result: p.Result, Cached: p.Cached}
	if p.Err != nil {
		rec.Error = p.Err.Error()
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.err == nil {
		o.err = o.enc.Encode(rec)
	}
}

// Err returns the first write error, if any.
func (o *JSONLObserver) Err() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.err
}

// CSVObserver streams telemetry as CSV with a header row derived from the
// first sample's core count: the scalar columns, one cycles column per
// sync class, then per-core pj/tokens_pj/epoch_pj/mode/class column
// groups. All samples in one feed must share a core count — merged sweeps
// over mixed sizes belong in the JSONL format. Safe for concurrent use.
//
// The column order is a stable contract: columns are only ever appended.
type CSVObserver struct {
	mu    sync.Mutex
	w     *csv.Writer
	err   error
	cores int // -1 until the header is written
}

// NewCSVObserver creates a CSV sink writing to w; see NewJSONLObserver for
// ownership conventions.
func NewCSVObserver(w io.Writer) *CSVObserver {
	return &CSVObserver{w: csv.NewWriter(w), cores: -1}
}

func csvHeader(cores int) []string {
	h := []string{
		"bench", "cores", "tech", "policy", "epoch", "cycle", "cycles",
		"partial", "budget_pj", "chip_pj", "donated_pj", "granted_pj",
		"discarded_pj", "inflight_pj", "noc_msgs", "noc_flits",
		"l1_hits", "l1_misses", "l2_hits", "l2_misses",
	}
	for c := 0; c < isa.NumSyncClasses; c++ {
		name := strings.ReplaceAll(isa.SyncClass(c).String(), "-", "_")
		h = append(h, name+"_cycles")
	}
	for i := 0; i < cores; i++ {
		p := "core" + strconv.Itoa(i)
		h = append(h, p+"_pj", p+"_tokens_pj", p+"_epoch_pj", p+"_mode", p+"_class")
	}
	return h
}

func csvRecord(s *Sample) []string {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	d := func(v int64) string { return strconv.FormatInt(v, 10) }
	rec := []string{
		s.Bench, strconv.Itoa(s.Cores), s.Tech, s.Policy,
		d(s.Epoch), d(s.Cycle), d(s.Cycles), strconv.FormatBool(s.Partial),
		f(s.BudgetPJ), f(s.ChipPJ), f(s.DonatedPJ), f(s.GrantedPJ),
		f(s.DiscardedPJ), f(s.InFlightPJ), d(s.NoCMessages), d(s.NoCFlits),
		d(s.L1Hits), d(s.L1Misses), d(s.L2Hits), d(s.L2Misses),
	}
	for _, v := range s.ClassCycles {
		rec = append(rec, d(v))
	}
	for i := range s.CorePJ {
		rec = append(rec, f(s.CorePJ[i]), f(s.TokensPJ[i]), f(s.EpochPJ[i]),
			strconv.Itoa(s.Modes[i]), strconv.Itoa(s.Classes[i]))
	}
	return rec
}

// Observe writes one CSV row (and the header, on the first sample).
func (o *CSVObserver) Observe(s *Sample) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.err != nil {
		return
	}
	if o.cores < 0 {
		o.cores = len(s.CorePJ)
		if o.err = o.w.Write(csvHeader(o.cores)); o.err != nil {
			return
		}
	}
	if len(s.CorePJ) != o.cores {
		o.err = fmt.Errorf("ptbsim: csv telemetry: %d-core sample in a %d-core feed (use format=jsonl for mixed-size sweeps)",
			len(s.CorePJ), o.cores)
		return
	}
	o.err = o.w.Write(csvRecord(s))
}

// Err flushes buffered rows and returns the first error, if any.
func (o *CSVObserver) Err() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.w.Flush()
	if o.err != nil {
		return o.err
	}
	return o.w.Error()
}

// MemoryObserver retains every sample (deep-copied) and run-completion
// event in memory — the in-process analogue of the file sinks, and the
// easiest way to post-process telemetry without I/O. Safe for concurrent
// use.
type MemoryObserver struct {
	mu      sync.Mutex
	samples []Sample
	runs    []Progress
}

// Observe retains a deep copy of the sample.
func (m *MemoryObserver) Observe(s *Sample) {
	m.mu.Lock()
	m.samples = append(m.samples, s.Clone())
	m.mu.Unlock()
}

// ObserveRun retains the run-completion event, implementing RunObserver.
func (m *MemoryObserver) ObserveRun(p Progress) {
	m.mu.Lock()
	m.runs = append(m.runs, p)
	m.mu.Unlock()
}

// Samples returns the retained samples in arrival order. The slice is a
// copy; the samples it holds are already detached from the recorder.
func (m *MemoryObserver) Samples() []Sample {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Sample(nil), m.samples...)
}

// Runs returns the retained run-completion events in arrival order.
func (m *MemoryObserver) Runs() []Progress {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Progress(nil), m.runs...)
}

// Reset discards everything retained so far.
func (m *MemoryObserver) Reset() {
	m.mu.Lock()
	m.samples, m.runs = nil, nil
	m.mu.Unlock()
}

// ReadTelemetry parses a JSONL telemetry stream (the JSONLObserver format)
// back into samples, in stream order. Run-completion records and blank
// lines are skipped; malformed lines fail with their line number. It
// reads streams written by any release (see JSONLObserver for the
// format's stability guarantee).
func ReadTelemetry(r io.Reader) ([]Sample, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var out []Sample
	line := 0
	for sc.Scan() {
		line++
		b := bytes.TrimSpace(sc.Bytes())
		if len(b) == 0 {
			continue
		}
		var probe struct {
			Run json.RawMessage `json:"run"`
		}
		if err := json.Unmarshal(b, &probe); err != nil {
			return nil, fmt.Errorf("ptbsim: telemetry line %d: %w", line, err)
		}
		if probe.Run != nil {
			continue
		}
		var s Sample
		if err := json.Unmarshal(b, &s); err != nil {
			return nil, fmt.Errorf("ptbsim: telemetry line %d: %w", line, err)
		}
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("ptbsim: reading telemetry: %w", err)
	}
	return out, nil
}
