package ptbsim

import (
	"errors"
	"strings"
	"testing"
)

// FuzzParseTechnique checks that technique parsing never panics, that every
// accepted input round-trips to the same canonical technique, and that every
// rejection wraps ErrUnknownTechnique.
func FuzzParseTechnique(f *testing.F) {
	for _, s := range TechniqueNames() {
		f.Add(s)
		f.Add(strings.ToUpper(s))
	}
	f.Add("twolevel")
	f.Add(" ptb ")
	f.Add("")
	f.Add("dvfs\x00")
	f.Fuzz(func(t *testing.T, s string) {
		tech, err := ParseTechnique(s)
		if err != nil {
			if !errors.Is(err, ErrUnknownTechnique) {
				t.Fatalf("ParseTechnique(%q) error %v does not wrap ErrUnknownTechnique", s, err)
			}
			if tech != "" {
				t.Fatalf("ParseTechnique(%q) returned %q alongside an error", s, tech)
			}
			return
		}
		again, err2 := ParseTechnique(string(tech))
		if err2 != nil || again != tech {
			t.Fatalf("ParseTechnique(%q) = %q but canonical name does not round-trip: (%q, %v)",
				s, tech, again, err2)
		}
		found := false
		for _, name := range TechniqueNames() {
			if string(tech) == name {
				found = true
			}
		}
		if !found {
			t.Fatalf("ParseTechnique(%q) = %q, not in TechniqueNames()", s, tech)
		}
	})
}

// FuzzParsePolicy checks that policy parsing never panics, that accepted
// inputs round-trip through Policy.String, and that rejections wrap
// ErrUnknownPolicy.
func FuzzParsePolicy(f *testing.F) {
	for _, s := range PolicyNames() {
		f.Add(s)
		f.Add(strings.ToUpper(s))
	}
	f.Add("ToAll")
	f.Add("")
	f.Add("dynamic ")
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParsePolicy(s)
		if err != nil {
			if !errors.Is(err, ErrUnknownPolicy) {
				t.Fatalf("ParsePolicy(%q) error %v does not wrap ErrUnknownPolicy", s, err)
			}
			return
		}
		again, err2 := ParsePolicy(p.String())
		if err2 != nil || again != p {
			t.Fatalf("ParsePolicy(%q) = %v but String() %q does not round-trip: (%v, %v)",
				s, p, p.String(), again, err2)
		}
	})
}

// FuzzParseFaultSpec checks the fault-spec parser never panics, that every
// accepted input yields a spec that validates and whose canonical String()
// reparses to the identical spec, and that every rejection wraps
// ErrBadFaultSpec so CLI tools can always errors.Is-dispatch.
func FuzzParseFaultSpec(f *testing.F) {
	f.Add("")
	f.Add("seed=42,drop=0.25")
	f.Add("drop=1")
	f.Add("noise=0.05,drift=0.02,glitch=0.1")
	f.Add("stale=-1,retries=-1,delaycycles=-1,stallcycles=-1")
	f.Add("seed=0x10,backoff=16")
	f.Add(" drop = 0.1 , stall = 0.05 ")
	f.Add("drop=2")
	f.Add("bogus=1")
	f.Add("drop=0.1,drop=0.2")
	f.Add("drop")
	f.Add("drop=nan")
	f.Fuzz(func(t *testing.T, in string) {
		s, err := ParseFaultSpec(in)
		if err != nil {
			if !errors.Is(err, ErrBadFaultSpec) {
				t.Fatalf("ParseFaultSpec(%q) error %v does not wrap ErrBadFaultSpec", in, err)
			}
			return
		}
		if verr := s.Validate(); verr != nil {
			t.Fatalf("ParseFaultSpec(%q) accepted a spec Validate rejects: %v", in, verr)
		}
		canon := s.String()
		again, err2 := ParseFaultSpec(canon)
		if err2 != nil {
			t.Fatalf("ParseFaultSpec(%q) = %+v but canonical %q does not reparse: %v", in, s, canon, err2)
		}
		if again != s {
			t.Fatalf("ParseFaultSpec(%q): canonical %q reparses to a different spec:\n in  %+v\n out %+v",
				in, canon, s, again)
		}
		if again.String() != canon {
			t.Fatalf("String() not canonical: %q then %q", canon, again.String())
		}
	})
}

// FuzzParseTelemetrySpec checks the -telemetry spec parser never panics,
// that every accepted spec validates, that its canonical String() reparses
// to the identical spec, and that every rejection wraps ErrBadTelemetrySpec
// so CLI tools can always errors.Is-dispatch.
func FuzzParseTelemetrySpec(f *testing.F) {
	f.Add("")
	f.Add("every=2048,out=run.jsonl")
	f.Add("every=512,format=csv,out=power.csv,ring=4096")
	f.Add("out=-")
	f.Add(" every = 100 , format = JSONL ")
	f.Add("every=-1")
	f.Add("every=1,every=2")
	f.Add("format=xml")
	f.Add("bogus=1")
	f.Add("every")
	f.Add("every=,out=x")
	f.Fuzz(func(t *testing.T, in string) {
		s, err := ParseTelemetrySpec(in)
		if err != nil {
			if !errors.Is(err, ErrBadTelemetrySpec) {
				t.Fatalf("ParseTelemetrySpec(%q) error %v does not wrap ErrBadTelemetrySpec", in, err)
			}
			return
		}
		if verr := s.Validate(); verr != nil {
			t.Fatalf("ParseTelemetrySpec(%q) accepted a spec Validate rejects: %v", in, verr)
		}
		canon := s.String()
		again, err2 := ParseTelemetrySpec(canon)
		if err2 != nil {
			t.Fatalf("ParseTelemetrySpec(%q) = %+v but canonical %q does not reparse: %v", in, s, canon, err2)
		}
		if again != s {
			t.Fatalf("ParseTelemetrySpec(%q): canonical %q reparses to a different spec:\n in  %+v\n out %+v",
				in, canon, s, again)
		}
		if again.String() != canon {
			t.Fatalf("String() not canonical: %q then %q", canon, again.String())
		}
	})
}

// FuzzConfigValidate checks that Validate never panics on arbitrary field
// combinations, that every rejection wraps one of the exported sentinels
// (so callers can always errors.Is-dispatch), and that every accepted
// Config also converts cleanly to the internal simulator config — Validate
// may not pass anything internal() would choke on.
func FuzzConfigValidate(f *testing.F) {
	f.Add("fft", "ptb", 4, 2, 0.0, 0.5, 0.25, int64(0), 0)
	f.Add("ocean", "dvfs", 16, 0, 0.2, 1.0, 1.0, int64(50_000_000), 0)
	f.Add("barnes", "ptb", 64, 1, 0.0, 0.5, 0.1, int64(0), 4)
	f.Add("", "", 0, 0, 0.0, 0.0, 0.0, int64(0), 0)
	f.Add("nosuch", "warp", -1, 9, -0.5, 2.0, -1.0, int64(-1), -2)
	f.Fuzz(func(t *testing.T, bench, tech string, cores, policy int,
		relax, budget, scale float64, maxCycles int64, cluster int) {
		cfg := Config{
			Benchmark:      bench,
			Cores:          cores,
			Technique:      Technique(tech),
			Policy:         Policy(policy),
			RelaxFrac:      relax,
			BudgetFrac:     budget,
			WorkloadScale:  scale,
			MaxCycles:      maxCycles,
			PTBClusterSize: cluster,
		}
		err := cfg.Validate()
		if err == nil {
			if _, ierr := cfg.internal(); ierr != nil {
				t.Fatalf("Validate accepted %+v but internal() rejects it: %v", cfg, ierr)
			}
			if err2 := cfg.Validate(); err2 != nil {
				t.Fatalf("Validate is not idempotent: first nil, then %v", err2)
			}
			return
		}
		sentinels := []error{
			ErrUnknownBenchmark, ErrBadCores, ErrUnknownTechnique,
			ErrUnknownPolicy, ErrBadScale, ErrBadBudget, ErrBadRelax,
			ErrBadMaxCycles, ErrBadCluster,
		}
		for _, s := range sentinels {
			if errors.Is(err, s) {
				return
			}
		}
		t.Fatalf("Validate(%+v) error %v wraps no exported sentinel", cfg, err)
	})
}
