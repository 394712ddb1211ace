package ptbsim_test

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"ptbsim"
)

// TestResultJSONRoundTrip marshals a real run's Result and a hand-built one
// exercising the fault/degradation fields, and demands that decoding
// reproduces every field exactly — float64 survives encoding/json bit-for-
// bit, so reflect.DeepEqual is the right bar. The wire schema (snake_case
// keys) is pinned separately below.
func TestResultJSONRoundTrip(t *testing.T) {
	res, err := ptbsim.RunContext(context.Background(), ptbsim.Config{
		Benchmark:     "fft",
		Cores:         4,
		Technique:     ptbsim.PTB,
		Policy:        ptbsim.Dynamic,
		WorkloadScale: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	synthetic := &ptbsim.Result{
		Benchmark: "ocean", Cores: 8, Technique: ptbsim.PTB, Policy: "ToOne",
		Cycles: 123, Committed: 45, EnergyJ: 1.25e-3, AoPBJ: 1e-6, BudgetPJ: 1935.1,
		MeanPowerW: 2.5, StdPowerW: 0.25, BusyFrac: 0.75, BarrierFrac: 0.25,
		HitMaxCycles: true, ComponentJ: map[string]float64{"core": 1e-3, "noc": 2.5e-4},
		TokenDonatedPJ: 10, TokenGrantedPJ: 9, TokenDiscardedPJ: 1, BalanceRounds: 7,
		CohGetS: 1, CohGetX: 2, CohPut: 3, CohFwd: 4, CohInv: 5,
		NoCMessages: 100, NoCFlits: 700,
		Degraded: true, FaultsInjected: 11, TokenLostPJ: 3.5, TokenDupPJ: 0.5,
		TokenRetries: 6, TokenReportsLost: 2, StaleFallbackCycles: 40,
		NoCStallCycles: 8, NoCRetransmits: 9, DVFSGlitches: 1,
	}
	for name, r := range map[string]*ptbsim.Result{"simulated": res, "synthetic": synthetic} {
		buf, err := json.Marshal(r)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var back ptbsim.Result
		if err := json.Unmarshal(buf, &back); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(*r, back) {
			t.Errorf("%s: round trip changed the result:\n in  %+v\n out %+v", name, *r, back)
		}
	}
}

// TestResultJSONSchema pins the stable snake_case wire keys external
// tooling depends on, and that zero-valued optional fields stay off the
// wire.
func TestResultJSONSchema(t *testing.T) {
	buf, err := json.Marshal(&ptbsim.Result{Benchmark: "fft", Cores: 2, Technique: ptbsim.None,
		EnergyJ: 0.5, MeanPowerW: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(buf, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"benchmark", "cores", "technique", "cycles", "committed",
		"energy_j", "aopb_j", "budget_pj", "mean_power_w", "noc_msgs", "noc_flits", "digest"} {
		if _, ok := m[key]; !ok {
			t.Errorf("wire form lacks key %q: %s", key, buf)
		}
	}
	for _, key := range []string{"policy", "hit_max_cycles", "component_j", "faults_injected", "degraded"} {
		if _, ok := m[key]; ok {
			t.Errorf("zero-valued optional key %q on the wire: %s", key, buf)
		}
	}
}

// TestResultJSONDigest pins the self-checking wire digest: the marshaled
// form embeds Result.Digest(), decoding verifies it (bit-exact float64
// round-tripping makes recomputation safe), a tampered stream fails with
// ErrDigestMismatch, and pre-digest streams still decode.
func TestResultJSONDigest(t *testing.T) {
	res, err := ptbsim.RunContext(context.Background(), ptbsim.Config{
		Benchmark: "radix", Cores: 2, Technique: ptbsim.None, WorkloadScale: 0.02,
	})
	if err != nil {
		t.Fatal(err)
	}
	buf, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(buf, &m); err != nil {
		t.Fatal(err)
	}
	if m["digest"] != res.Digest() {
		t.Fatalf("wire digest %v != Result.Digest() %q", m["digest"], res.Digest())
	}

	var back ptbsim.Result
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatalf("verified decode failed: %v", err)
	}

	// Tamper with a digest-covered field: decode must fail loudly, never
	// hand back a silently-wrong result.
	m["cycles"] = float64(res.Cycles + 1)
	tampered, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	err = json.Unmarshal(tampered, &back)
	if !errors.Is(err, ptbsim.ErrDigestMismatch) {
		t.Fatalf("tampered decode error = %v, want ErrDigestMismatch", err)
	}

	// Pre-digest streams (no digest key) skip verification.
	delete(m, "digest")
	m["cycles"] = float64(res.Cycles)
	legacy, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(legacy, &back); err != nil {
		t.Fatalf("legacy decode failed: %v", err)
	}
}

// TestConfigJSONRoundTrip checks the Config wire form: parsers accept what
// Marshal emits, the fault spec travels as its canonical flag string, and
// the in-process-only Observe field never reaches the wire.
func TestConfigJSONRoundTrip(t *testing.T) {
	cfgs := []ptbsim.Config{
		{Benchmark: "fft", Cores: 4, Technique: ptbsim.PTB, Policy: ptbsim.Dynamic,
			WorkloadScale: 0.25},
		{Benchmark: "ocean", Cores: 16, Technique: ptbsim.TwoLevel, RelaxFrac: 0.2,
			BudgetFrac: 0.5, MaxCycles: 1 << 20, PessimisticPTBLatency: true,
			PTBClusterSize: 4, CheckInvariants: true},
		{Benchmark: "raytrace", Cores: 2, Technique: ptbsim.PTB, Policy: ptbsim.ToOne,
			Faults: &ptbsim.FaultSpec{Seed: 42, TokenDrop: 0.25}},
		{},
	}
	for i, cfg := range cfgs {
		withObs := cfg
		withObs.Observe = &ptbsim.Telemetry{Every: 512, Observer: &ptbsim.MemoryObserver{}}
		buf, err := json.Marshal(withObs)
		if err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		var back ptbsim.Config
		if err := json.Unmarshal(buf, &back); err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		want := cfg
		want.Observe = nil // observers are in-process values with no wire form
		if !reflect.DeepEqual(want, back) {
			t.Errorf("config %d: round trip changed it:\n in  %+v\n out %+v\n wire %s",
				i, want, back, buf)
		}
	}
}

// TestConfigJSONRejectsBadNames checks that decoding goes through the same
// validated parsers as the CLI flags, so a bad technique or policy name on
// the wire surfaces the standard sentinel.
func TestConfigJSONRejectsBadNames(t *testing.T) {
	cases := map[string]error{
		`{"technique":"warp"}`:        ptbsim.ErrBadTechnique,
		`{"policy":"nosuch"}`:         ptbsim.ErrBadPolicy,
		`{"faults":"drop=2"}`:         ptbsim.ErrBadFaultSpec,
		`{"faults":"drop=0.1,bogus"}`: ptbsim.ErrBadFaultSpec,
	}
	for in, sentinel := range cases {
		var cfg ptbsim.Config
		err := json.Unmarshal([]byte(in), &cfg)
		if err == nil {
			t.Errorf("decoding %s succeeded, want error wrapping %v", in, sentinel)
			continue
		}
		if !errors.Is(err, sentinel) {
			t.Errorf("decoding %s: error %v does not wrap %v", in, err, sentinel)
		}
	}
}

// TestWireBytesPinned compares the marshaled Config and Result byte for
// byte against literal streams. The Config bytes are the Experiment cache
// key, the ptbserve journal ID and the store file name, so any change to
// key order, omitempty choices or value spelling shows up here first. Each
// literal must also decode and re-marshal to itself.
func TestWireBytesPinned(t *testing.T) {
	cases := []struct {
		name string
		v    any
		back any // fresh value the literal decodes into
		want string
	}{
		{
			name: "config every wire field",
			v: ptbsim.Config{
				Benchmark: "ocean", Cores: 16, Technique: ptbsim.PTB, Policy: ptbsim.Dynamic,
				RelaxFrac: 0.2, BudgetFrac: 0.45, WorkloadScale: 0.25, MaxCycles: 1 << 20,
				PessimisticPTBLatency: true, PTBClusterSize: 4, CheckInvariants: true,
				Faults: &ptbsim.FaultSpec{
					Seed: 42, TokenDrop: 0.1, TokenDelay: 0.05, TokenDup: 0.01,
					TokenDelayCycles: 32, StaleTimeout: -1, MaxRetries: 5, RetryBackoff: 4,
					LinkStall: 0.02, LinkStallCycles: 8, FlitCorrupt: 0.003,
					SensorNoise: 0.05, SensorDrift: 0.025, DVFSGlitch: 0.5,
				},
				IntraParallel: 3,
				Observe:       &ptbsim.Telemetry{Every: 512, Observer: &ptbsim.MemoryObserver{}},
				Checkpoint:    &ptbsim.Checkpoint{},
			},
			back: &ptbsim.Config{},
			want: `{"benchmark":"ocean","cores":16,"technique":"ptb","policy":"dynamic","relax_frac":0.2,"budget_frac":0.45,"workload_scale":0.25,"max_cycles":1048576,"pessimistic_ptb_latency":true,"ptb_cluster_size":4,"check_invariants":true,"faults":"backoff=4,corrupt=0.003,delay=0.05,delaycycles=32,drift=0.025,drop=0.1,dup=0.01,glitch=0.5,noise=0.05,retries=5,seed=42,stale=-1,stall=0.02,stallcycles=8"}`,
		},
		{
			name: "config zero fault spec",
			v:    ptbsim.Config{Benchmark: "fft", Faults: &ptbsim.FaultSpec{}},
			back: &ptbsim.Config{},
			want: `{"benchmark":"fft","faults":""}`,
		},
		{
			name: "config toone",
			v:    ptbsim.Config{Benchmark: "radix", Cores: 4, Technique: ptbsim.PTB, Policy: ptbsim.ToOne},
			back: &ptbsim.Config{},
			want: `{"benchmark":"radix","cores":4,"technique":"ptb","policy":"toone"}`,
		},
		{
			name: "config dynamic",
			v:    ptbsim.Config{Benchmark: "radix", Cores: 4, Technique: ptbsim.PTB, Policy: ptbsim.Dynamic},
			back: &ptbsim.Config{},
			want: `{"benchmark":"radix","cores":4,"technique":"ptb","policy":"dynamic"}`,
		},
		{
			name: "config toall",
			v:    ptbsim.Config{Benchmark: "radix", Cores: 4, Technique: ptbsim.PTB, Policy: ptbsim.ToAll},
			back: &ptbsim.Config{},
			want: `{"benchmark":"radix","cores":4,"technique":"ptb"}`,
		},
		{
			name: "config zero",
			v:    ptbsim.Config{},
			back: &ptbsim.Config{},
			want: `{"benchmark":""}`,
		},
		{
			name: "result every field",
			v: &ptbsim.Result{
				Benchmark: "ocean", Cores: 8, Technique: ptbsim.PTB, Policy: "ToOne",
				Cycles: 123456, Committed: 98765, EnergyJ: 1.25e-3, AoPBJ: 1e-6, BudgetPJ: 1935.1,
				MeanPowerW: 2.5, StdPowerW: 0.25, BusyFrac: 0.6, LockAcqFrac: 0.1,
				LockRelFrac: 0.05, BarrierFrac: 0.25, SpinEnergyFrac: 0.3, OverBudgetFrac: 0.125,
				MeanTempC: 61.5, StdTempC: 1.75, HitMaxCycles: true,
				ComponentJ:     map[string]float64{"noc": 2.5e-4, "core": 1e-3, "leakage": 3e-5},
				TokenDonatedPJ: 10, TokenGrantedPJ: 9, TokenDiscardedPJ: 1, BalanceRounds: 7,
				CohGetS: 1, CohGetX: 2, CohPut: 3, CohFwd: 4, CohInv: 5,
				NoCMessages: 100, NoCFlits: 700,
				Degraded: true, FaultsInjected: 11, TokenLostPJ: 3.5, TokenDupPJ: 0.5,
				TokenRetries: 6, TokenReportsLost: 2, StaleFallbackCycles: 40,
				NoCStallCycles: 8, NoCRetransmits: 9, DVFSGlitches: 1,
			},
			back: &ptbsim.Result{},
			want: `{"benchmark":"ocean","cores":8,"technique":"ptb","policy":"ToOne","cycles":123456,"committed":98765,"energy_j":0.00125,"aopb_j":0.000001,"budget_pj":1935.1,"mean_power_w":2.5,"std_power_w":0.25,"busy_frac":0.6,"lock_acq_frac":0.1,"lock_rel_frac":0.05,"barrier_frac":0.25,"spin_energy_frac":0.3,"over_budget_frac":0.125,"mean_temp_c":61.5,"std_temp_c":1.75,"hit_max_cycles":true,"component_j":{"core":0.001,"leakage":0.00003,"noc":0.00025},"token_donated_pj":10,"token_granted_pj":9,"token_discarded_pj":1,"balance_rounds":7,"coh_gets":1,"coh_getx":2,"coh_put":3,"coh_fwd":4,"coh_inv":5,"noc_msgs":100,"noc_flits":700,"degraded":true,"faults_injected":11,"token_lost_pj":3.5,"token_dup_pj":0.5,"token_retries":6,"token_reports_lost":2,"stale_fallback_cycles":40,"noc_stall_cycles":8,"noc_retransmits":9,"dvfs_glitches":1,"digest":"ocean/8/ptb/ToOne cycles=123456 committed=98765 energy=0x1.47ae147ae147bp-10 aopb=0x1.0c6f7a0b5ed8dp-20 tokens=0x1.4p+03/0x1.2p+03/0x1p+00 rounds=7 coh=1/2/3/4/5 noc=100/700 sha=9d3438b4de17"}`,
		},
		{
			name: "result zero",
			v:    &ptbsim.Result{},
			back: &ptbsim.Result{},
			want: `{"benchmark":"","cores":0,"technique":"","cycles":0,"committed":0,"energy_j":0,"aopb_j":0,"budget_pj":0,"mean_power_w":0,"std_power_w":0,"busy_frac":0,"lock_acq_frac":0,"lock_rel_frac":0,"barrier_frac":0,"spin_energy_frac":0,"over_budget_frac":0,"mean_temp_c":0,"std_temp_c":0,"token_donated_pj":0,"token_granted_pj":0,"token_discarded_pj":0,"balance_rounds":0,"coh_gets":0,"coh_getx":0,"coh_put":0,"coh_fwd":0,"coh_inv":0,"noc_msgs":0,"noc_flits":0,"digest":"/0/ cycles=0 committed=0 energy=0x0p+00 aopb=0x0p+00 tokens=0x0p+00/0x0p+00/0x0p+00 rounds=0 coh=0/0/0/0/0 noc=0/0 sha=77b9f2e33c97"}`,
		},
	}
	for _, tc := range cases {
		got, err := json.Marshal(tc.v)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if string(got) != tc.want {
			t.Errorf("%s: wire bytes moved:\n got  %s\n want %s", tc.name, got, tc.want)
		}
		if err := json.Unmarshal([]byte(tc.want), tc.back); err != nil {
			t.Fatalf("%s: decoding the pinned bytes: %v", tc.name, err)
		}
		again, err := json.Marshal(tc.back)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if string(again) != tc.want {
			t.Errorf("%s: decode and re-marshal moved the bytes:\n got  %s\n want %s", tc.name, again, tc.want)
		}
	}
}

// TestWireTagsDeclared makes every exported field of Result and Config
// declare its wire form: a json name, or "-" for a field with no wire
// form. A field added without a tag would reach the wire (and the Config
// cache key) under its Go name unnoticed.
func TestWireTagsDeclared(t *testing.T) {
	for _, typ := range []reflect.Type{reflect.TypeOf(ptbsim.Result{}), reflect.TypeOf(ptbsim.Config{})} {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if !f.IsExported() {
				continue
			}
			if name, _, _ := strings.Cut(f.Tag.Get("json"), ","); name == "" {
				t.Errorf("%s.%s has no json tag name", typ.Name(), f.Name)
			}
		}
	}
}

// TestConfigJSONEmptyNames checks that an explicit empty technique or
// policy decodes to the zero value, as an omitted key does.
func TestConfigJSONEmptyNames(t *testing.T) {
	var cfg ptbsim.Config
	if err := json.Unmarshal([]byte(`{"benchmark":"fft","technique":"","policy":""}`), &cfg); err != nil {
		t.Fatal(err)
	}
	if want := (ptbsim.Config{Benchmark: "fft"}); !reflect.DeepEqual(cfg, want) {
		t.Errorf("decoded %+v, want %+v", cfg, want)
	}
}
