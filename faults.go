package ptbsim

import "ptbsim/internal/fault"

// FaultSpec declares the fault-injection rates and parameters of a run
// (Config.Faults). The zero FaultSpec injects nothing, and a run under it
// is bit-identical to a run with no spec at all. It is an alias of the
// engine's spec type, so the field documentation and the determinism
// guarantees live on fault.Spec; its Validate errors wrap ErrBadFaultSpec
// and it travels on the wire as its String form.
type FaultSpec = fault.Spec

// ParseFaultSpec builds a FaultSpec from a comma-separated key=value list,
// the syntax the CLI tools accept for their -faults flag:
//
//	"seed=42,drop=0.1,stall=0.05,noise=0.02"
//
// Keys (all optional): seed, drop, delay, dup, delaycycles, stale,
// retries, backoff, stall, stallcycles, corrupt, noise, drift, glitch.
// Unknown or repeated keys and malformed values return an error wrapping
// ErrBadFaultSpec; the empty string parses to the zero spec.
func ParseFaultSpec(in string) (FaultSpec, error) { return fault.Parse(in) }
