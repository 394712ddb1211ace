package sim

import (
	"fmt"
	"reflect"
	"testing"

	"ptbsim/internal/core"
	"ptbsim/internal/fault"
	"ptbsim/internal/workload"
)

// fastOffRun runs cfg with the skip-ahead gate forced off (every cycle takes
// the full Tick path), modeling a maximally pessimistic NextWake that always
// answers "wake now".
func fastOffRun(t *testing.T, cfg Config) (*System, any) {
	t.Helper()
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.fastOff = true
	r, err := s.RunContext(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	return s, r
}

// TestPessimisticNextWakeOnlyCostsSpeed is the satellite soundness test:
// disabling the fast path entirely (the conservative "unknown → wake now"
// default taken to its extreme) must reproduce every result field exactly —
// a pessimistic classifier can only cost speed, never change the digest.
// Swept across the techniques with distinct controller stacks, plus a
// nonzero-rate fault run (whose RNG draws must line up cycle for cycle).
func TestPessimisticNextWakeOnlyCostsSpeed(t *testing.T) {
	cfgs := []Config{
		tiny("ocean", 4, TechNone, core.PolicyToAll),
		tiny("ocean", 4, TechDVFS, core.PolicyToAll),
		tiny("fluidanimate", 4, Tech2Level, core.PolicyToAll),
		tiny("fluidanimate", 4, TechPTB, core.PolicyDynamic),
		tiny("raytrace", 4, TechPTBSpinGate, core.PolicyToAll),
		tiny("ocean", 4, TechMaxBIPS, core.PolicyToAll),
	}
	faulted := tiny("ocean", 4, TechPTB, core.PolicyToAll)
	faulted.Faults = &fault.Spec{Seed: 7, TokenDrop: 0.01, SensorNoise: 0.02, LinkStall: 0.005}
	cfgs = append(cfgs, faulted)

	for _, cfg := range cfgs {
		name := string(cfg.Technique)
		if cfg.Faults != nil {
			name += "+faults"
		}
		t.Run(name, func(t *testing.T) {
			fastSys, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			fastRes, err := fastSys.RunContext(t.Context())
			if err != nil {
				t.Fatal(err)
			}
			_, slowRes := fastOffRun(t, cfg)
			if !reflect.DeepEqual(fastRes, slowRes) {
				t.Fatalf("results diverge between fast-path and pessimistic runs:\nfast %+v\nslow %+v", fastRes, slowRes)
			}
			if cfg.Technique == TechNone && fastSys.FastCycles() == 0 {
				t.Fatal("fast path never engaged on an unthrottled run")
			}
		})
	}
}

// TestFastPathEngages pins the exact number of cycles skip-ahead covers on
// three golden cells (scale 0.25, Dynamic policy). Results are identical
// with the fast path off, so only this count shows it disabled, even in
// part; a spurious due event closes the gate too and moves the count.
func TestFastPathEngages(t *testing.T) {
	for _, c := range []struct {
		bench        string
		tech         Technique
		fast, cycles int64
	}{
		{"barnes", TechNone, 59_122, 135_461},
		{"ocean", TechPTB, 44_985, 159_250},
		{"raytrace", TechPTBSpinGate, 59_682, 148_228},
	} {
		t.Run(fmt.Sprintf("%s/4/%s", c.bench, c.tech), func(t *testing.T) {
			cfg := tiny(c.bench, 4, c.tech, core.PolicyDynamic)
			cfg.WorkloadScale = 0.25
			s, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.RunContext(t.Context()); err != nil {
				t.Fatal(err)
			}
			if s.FastCycles() != c.fast || s.Cycle() != c.cycles {
				t.Fatalf("fast path covered %d of %d cycles, want %d of %d", s.FastCycles(), s.Cycle(), c.fast, c.cycles)
			}
		})
	}
}

// TestStepZeroAllocSteadyState pins the ISSUE-4 acceptance criterion:
// System.Step performs zero allocations per cycle in the steady state with
// invariants off. The steady state measured is the quiescent one — workload
// drained, every per-run pool (event free-list, ROB waiter arrays, balancer
// scratch, mesh message records, partition staging spools) warmed by a full
// run — where Step still executes its entire tail: the skip-ahead gate,
// event queue advance, core tick replay, leakage metering, budget refresh,
// controller tick (including a live PTB balancer), meter fold, collector
// and thermal recording. The par-intra>1 variants additionally cover the
// tile-worker handshake: waking the workers, the quantum barrier and the
// staged-spool drain must all run allocation-free too (AllocsPerRun reads
// the global allocation counter, so worker-goroutine allocations count).
func TestStepZeroAllocSteadyState(t *testing.T) {
	for _, tech := range []Technique{TechNone, TechPTB} {
		for _, tiles := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/par-intra=%d", tech, tiles), func(t *testing.T) {
				spec, ok := workload.ByName("ocean")
				if !ok {
					t.Fatal("ocean missing from catalog")
				}
				cfg := Config{
					Benchmark:     spec,
					Cores:         4,
					Technique:     tech,
					Policy:        core.PolicyToAll,
					WorkloadScale: 0.05,
					MaxCycles:     3_000_000,
					IntraParallel: tiles,
				}
				s, err := NewSystem(cfg)
				if err != nil {
					t.Fatal(err)
				}
				for !s.done() && s.cycle < cfg.MaxCycles {
					s.Step()
				}
				if !s.done() {
					t.Fatal("workload did not drain")
				}
				allocs := testing.AllocsPerRun(2000, s.Step)
				if allocs != 0 {
					t.Fatalf("System.Step allocates %.2f objects/cycle in steady state, want 0", allocs)
				}
			})
		}
	}
}
