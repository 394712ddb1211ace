package ptbsim

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// TelemetrySpec is the parsed form of the CLI tools' -telemetry flag: where
// and how to stream epoch telemetry. The zero spec selects the defaults —
// JSONL on standard output at DefaultTelemetryEvery.
type TelemetrySpec struct {
	// Every is the sampling period in cycles (0 = DefaultTelemetryEvery).
	Every int64
	// Path is the output file; "" or "-" means standard output.
	Path string
	// Format is "jsonl" (the default when empty) or "csv".
	Format string
}

// ParseTelemetrySpec builds a TelemetrySpec from a comma-separated
// key=value list, the syntax the CLI tools accept for their -telemetry
// flag:
//
//	"every=2048,out=run.jsonl"
//	"every=512,format=csv,out=power.csv"
//
// Keys (all optional): every, out, format. Unknown or repeated keys
// and malformed values return an error wrapping ErrBadTelemetrySpec; the
// empty string parses to the zero spec.
func ParseTelemetrySpec(in string) (TelemetrySpec, error) {
	var s TelemetrySpec
	if strings.TrimSpace(in) == "" {
		return s, nil
	}
	seen := make(map[string]bool)
	for _, part := range strings.Split(in, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			return TelemetrySpec{}, fmt.Errorf("ptbsim: %w: empty clause in %q", ErrBadTelemetrySpec, in)
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return TelemetrySpec{}, fmt.Errorf("ptbsim: %w: clause %q is not key=value", ErrBadTelemetrySpec, part)
		}
		k, v = strings.ToLower(strings.TrimSpace(k)), strings.TrimSpace(v)
		if seen[k] {
			return TelemetrySpec{}, fmt.Errorf("ptbsim: %w: repeated key %q", ErrBadTelemetrySpec, k)
		}
		seen[k] = true
		switch k {
		case "every":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil || n < 0 {
				return TelemetrySpec{}, fmt.Errorf("ptbsim: %w: every=%q (want a non-negative cycle count)", ErrBadTelemetrySpec, v)
			}
			s.Every = n
		case "out":
			s.Path = v
		case "format":
			f := strings.ToLower(v)
			if f != "jsonl" && f != "csv" {
				return TelemetrySpec{}, fmt.Errorf("ptbsim: %w: format=%q (valid: jsonl, csv)", ErrBadTelemetrySpec, v)
			}
			s.Format = f
		default:
			return TelemetrySpec{}, fmt.Errorf("ptbsim: %w: unknown key %q (valid: every, out, format)", ErrBadTelemetrySpec, k)
		}
	}
	return s, nil
}

// String renders the spec in ParseTelemetrySpec's syntax, omitting zero
// fields in a deterministic key order. The zero spec renders as ""; every
// spec ParseTelemetrySpec accepts round-trips.
func (s TelemetrySpec) String() string {
	var parts []string
	if s.Every != 0 {
		parts = append(parts, "every="+strconv.FormatInt(s.Every, 10))
	}
	if s.Path != "" {
		parts = append(parts, "out="+s.Path)
	}
	if s.Format != "" {
		parts = append(parts, "format="+s.Format)
	}
	return strings.Join(parts, ",")
}

// Validate checks the spec; errors wrap ErrBadTelemetrySpec. A Path
// containing a comma is rejected because it could not round-trip through
// the flag syntax.
func (s TelemetrySpec) Validate() error {
	if s.Every < 0 {
		return fmt.Errorf("ptbsim: %w: negative sampling period %d", ErrBadTelemetrySpec, s.Every)
	}
	switch s.Format {
	case "", "jsonl", "csv":
	default:
		return fmt.Errorf("ptbsim: %w: format=%q (valid: jsonl, csv)", ErrBadTelemetrySpec, s.Format)
	}
	if strings.Contains(s.Path, ",") {
		return fmt.Errorf("ptbsim: %w: output path %q contains a comma", ErrBadTelemetrySpec, s.Path)
	}
	return nil
}

// Start validates the spec, opens its output and builds the Telemetry to
// put in Config.Observe (or pass to WithObserver). The returned close
// function flushes buffered samples, reports the first sink error and
// closes the file; call it once after the run(s) finish:
//
//	tel, closeTel, err := spec.Start()
//	// ... run with Config{Observe: tel}
//	err = closeTel()
//
// The observer inside the returned Telemetry is safe to share across
// concurrent runs.
func (s TelemetrySpec) Start() (*Telemetry, func() error, error) {
	if err := s.Validate(); err != nil {
		return nil, nil, err
	}
	var f *os.File
	var w io.Writer = os.Stdout
	if s.Path != "" && s.Path != "-" {
		var err error
		if f, err = os.Create(s.Path); err != nil {
			return nil, nil, fmt.Errorf("ptbsim: telemetry output: %w", err)
		}
		w = f
	}
	bw := bufio.NewWriter(w)
	var obsv Observer
	var finish func() error
	switch s.Format {
	case "csv":
		o := NewCSVObserver(bw)
		obsv, finish = o, o.Err
	default:
		o := NewJSONLObserver(bw)
		obsv, finish = o, o.Err
	}
	closeFn := func() error {
		err := finish()
		if e := bw.Flush(); err == nil {
			err = e
		}
		if f != nil {
			if e := f.Close(); err == nil {
				err = e
			}
		}
		return err
	}
	return &Telemetry{Every: s.Every, Observer: obsv}, closeFn, nil
}
