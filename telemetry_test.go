package ptbsim

import (
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func TestParseTelemetrySpec(t *testing.T) {
	good := map[string]TelemetrySpec{
		"":                       {},
		"every=2048":             {Every: 2048},
		"out=run.jsonl":          {Path: "run.jsonl"},
		"out=-":                  {Path: "-"},
		"format=CSV,out=p.csv":   {Format: "csv", Path: "p.csv"},
		" every = 64 , out = x ": {Every: 64, Path: "x"},
		"EVERY=16,FORMAT=jsonl":  {Every: 16, Format: "jsonl"},
		"every=32,out=a=b":       {Every: 32, Path: "a=b"},
	}
	for in, want := range good {
		got, err := ParseTelemetrySpec(in)
		if err != nil {
			t.Errorf("ParseTelemetrySpec(%q): %v", in, err)
			continue
		}
		if got != want {
			t.Errorf("ParseTelemetrySpec(%q) = %+v, want %+v", in, got, want)
		}
		if again, err := ParseTelemetrySpec(got.String()); err != nil || again != got {
			t.Errorf("canonical %q does not round-trip: (%+v, %v)", got.String(), again, err)
		}
	}
	bad := []string{
		"every=-1", "every=x", "ring=-2", "ring=1.5", "format=xml",
		"bogus=1", "every", "every=1,every=2", "every=1,,ring=2",
		"every=512,ring=64", "ring=8,every=32,out=a=b",
	}
	for _, in := range bad {
		if _, err := ParseTelemetrySpec(in); !errors.Is(err, ErrBadTelemetrySpec) {
			t.Errorf("ParseTelemetrySpec(%q) error %v does not wrap ErrBadTelemetrySpec", in, err)
		}
	}
}

func TestTelemetrySpecValidate(t *testing.T) {
	for _, bad := range []TelemetrySpec{
		{Every: -1},
		{Format: "xml"},
		{Path: "a,b"},
	} {
		if err := bad.Validate(); !errors.Is(err, ErrBadTelemetrySpec) {
			t.Errorf("Validate(%+v) error %v does not wrap ErrBadTelemetrySpec", bad, err)
		}
	}
	if err := (TelemetrySpec{}).Validate(); err != nil {
		t.Errorf("zero spec rejected: %v", err)
	}
}

// TestTelemetrySpecStartJSONL runs Start end to end against a real file:
// samples stream out as JSONL, the close function flushes them, and
// ReadTelemetry gets them back.
func TestTelemetrySpecStartJSONL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	tel, closeTel, err := TelemetrySpec{Every: 128, Path: path}.Start()
	if err != nil {
		t.Fatal(err)
	}
	if tel.Every != 128 {
		t.Fatalf("Telemetry.Every = %d, want 128", tel.Every)
	}
	s := &Sample{Bench: "fft", Cores: 2, Tech: "ptb", CorePJ: []float64{1, 2}}
	tel.Observer.Observe(s)
	s.Epoch = 1
	tel.Observer.Observe(s)
	if err := closeTel(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := ReadTelemetry(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1].Epoch != 1 || got[0].Bench != "fft" {
		t.Fatalf("file round-trip returned %+v", got)
	}
}

func TestTelemetrySpecStartRejectsBadSpec(t *testing.T) {
	if _, _, err := (TelemetrySpec{Every: -1}).Start(); !errors.Is(err, ErrBadTelemetrySpec) {
		t.Fatalf("Start accepted an invalid spec: %v", err)
	}
}

// TestFlagValues drives the shared flag.Value implementations the way the
// CLI tools wire them, pinning that all four parse through the validated
// parsers and report the typed sentinels.
func TestFlagValues(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	tech := PTB
	fs.Var(&tech, "tech", "")
	pol := Dynamic
	fs.Var(&pol, "policy", "")
	var faults FaultSpecFlag
	fs.Var(&faults, "faults", "")
	var tel TelemetryFlag
	fs.Var(&tel, "telemetry", "")

	if err := fs.Parse([]string{
		"-tech", "2level", "-policy", "toone",
		"-faults", "seed=42,drop=0.25", "-telemetry", "every=512,out=x.jsonl",
	}); err != nil {
		t.Fatal(err)
	}
	if tech != TwoLevel {
		t.Errorf("tech = %v", tech)
	}
	if pol != ToOne {
		t.Errorf("policy = %v", pol)
	}
	if faults.Spec == nil || faults.Spec.Seed != 42 || faults.Spec.TokenDrop != 0.25 {
		t.Errorf("faults = %+v", faults.Spec)
	}
	if tel.Spec == nil || tel.Spec.Every != 512 || tel.Spec.Path != "x.jsonl" {
		t.Errorf("telemetry = %+v", tel.Spec)
	}

	var unset FaultSpecFlag
	var unsetTel TelemetryFlag
	if unset.Spec != nil || unsetTel.Spec != nil || unset.String() != "" || unsetTel.String() != "" {
		t.Error("unset flags must keep Spec nil and render empty")
	}
	if err := unsetTel.Set(""); err != nil || unsetTel.Spec == nil {
		t.Errorf(`-telemetry "" must enable the defaults: (%+v, %v)`, unsetTel.Spec, err)
	}

	if err := new(Technique).Set("warp"); !errors.Is(err, ErrBadTechnique) {
		t.Errorf("bad technique error %v does not wrap ErrBadTechnique", err)
	}
	if err := new(Policy).Set("nosuch"); !errors.Is(err, ErrBadPolicy) {
		t.Errorf("bad policy error %v does not wrap ErrBadPolicy", err)
	}
	if err := new(FaultSpecFlag).Set("drop=2"); !errors.Is(err, ErrBadFaultSpec) {
		t.Errorf("bad fault spec error %v does not wrap ErrBadFaultSpec", err)
	}
	if err := new(TelemetryFlag).Set("every=-1"); !errors.Is(err, ErrBadTelemetrySpec) {
		t.Errorf("bad telemetry spec error %v does not wrap ErrBadTelemetrySpec", err)
	}
}
