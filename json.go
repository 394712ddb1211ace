package ptbsim

import (
	"encoding/json"
	"errors"
	"fmt"
)

// ErrDigestMismatch reports a decoded Result whose embedded digest does
// not match the digest recomputed from its decoded fields — the stream
// was corrupted or hand-edited. Branch with errors.Is.
var ErrDigestMismatch = errors.New("ptbsim: result digest mismatch")

// The JSON wire schema of Result and Config is the json tags on their
// fields: snake_case names fixed independently of the Go names, so a Go
// rename never moves the wire (the ptbsim -json output, the JSONL
// telemetry run records, the ptbserve store, journal and HTTP API, and any
// external tooling built on them). Values with a parse syntax travel as
// their parse names: Policy and FaultSpec through their text methods,
// Technique as its string. The marshaled Config is also the Experiment
// cache key, so its bytes must never move; TestWireBytesPinned compares
// both types' marshaled bytes against literal streams, and
// TestWireTagsDeclared makes every new exported field declare a json tag
// (a name, or "-" for fields with no wire form).

// resultFields is Result without its methods, so marshaling it uses the
// field tags instead of recursing into Result.MarshalJSON.
type resultFields Result

// resultWire is Result's wire form: its fields, then the derived digest.
type resultWire struct {
	resultFields
	Digest string `json:"digest,omitempty"`
}

// MarshalJSON encodes the result with its digest appended. The digest is
// derived, not stored: it is recomputed from the Result on marshal and —
// because encoding/json round-trips float64 values bit-exactly — verified
// against the decoded fields on unmarshal, making every serialized result
// self-checking (ptbserve's on-disk store and the JSONL telemetry records
// rely on this).
func (r *Result) MarshalJSON() ([]byte, error) {
	return json.Marshal(resultWire{resultFields(*r), r.Digest()})
}

// UnmarshalJSON decodes a result and verifies its digest. Streams written
// before the digest existed simply omit it and skip verification.
func (r *Result) UnmarshalJSON(data []byte) error {
	var w resultWire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	*r = Result(w.resultFields)
	if w.Digest != "" {
		if got := r.Digest(); got != w.Digest {
			return fmt.Errorf("%w: stored %q, recomputed %q", ErrDigestMismatch, w.Digest, got)
		}
	}
	return nil
}

// policyName is ParsePolicy's inverse: the lowercase wire name.
func policyName(p Policy) string {
	switch p {
	case ToOne:
		return "toone"
	case Dynamic:
		return "dynamic"
	default:
		return "toall"
	}
}

// MarshalText encodes the policy as its lowercase parse name.
func (p Policy) MarshalText() ([]byte, error) { return []byte(policyName(p)), nil }

// UnmarshalText decodes a policy through ParsePolicy; errors wrap
// ErrBadPolicy.
func (p *Policy) UnmarshalText(b []byte) error { return parseText(p, b, ParsePolicy) }

// UnmarshalText decodes a technique through ParseTechnique; errors wrap
// ErrBadTechnique.
func (t *Technique) UnmarshalText(b []byte) error { return parseText(t, b, ParseTechnique) }

// parseText decodes a non-empty name through parse. The empty name decodes
// to the zero value, as an omitted key does.
func parseText[T any](dst *T, b []byte, parse func(string) (T, error)) error {
	var v T
	if len(b) > 0 {
		var err error
		if v, err = parse(string(b)); err != nil {
			return err
		}
	}
	*dst = v
	return nil
}
