# Development entry points. Everything here is plain go tooling; the
# Makefile only names the common invocations.

GO ?= go

.PHONY: all build test test-short race check chaos golden sweep-check bench serve-smoke ckpt-conformance crash-e2e profile fuzz fmt vet loc bench-ab

all: build test

build:
	$(GO) build ./...

# Full suite, including the golden-digest matrix (~15 s of simulation).
test:
	$(GO) test ./...

# Unit tests only; skips the golden matrix and other long runs.
test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race -shuffle=on -count=1 -short ./...

# Full technique×benchmark matrix with the runtime invariant layer on,
# failing on any conservation/consistency violation or digest drift.
check:
	$(GO) test -count=1 -run 'TestGoldenMatrixDigests|TestInvariants' -v .  ./internal/sim/

# Fault-rate sweep with the invariant layer on: the balancer's
# energy-accounting error must grow monotonically with the token-drop
# rate at every core count (PTB graceful degradation; DESIGN.md §9).
chaos:
	$(GO) run ./cmd/ptbchaos -scale 0.25 -check -assert-monotone

# Regenerate the committed golden digests and the paper-table sweep
# (testdata/golden/matrix_scale025.txt, results_sweep.txt). Review the
# diff like source: it should only change with intentional model edits.
golden:
	$(GO) generate .

# Regenerate the paper tables exactly as `go generate` does and compare
# them with the committed results_sweep.txt (~2 min on 2 CPUs). CI's
# sweep-regression job runs this.
sweep-check:
	$(GO) run ./cmd/ptbsweep -exp all -scale 0.25 -q -o sweep-check.txt
	cmp results_sweep.txt sweep-check.txt
	rm -f sweep-check.txt

bench:
	$(GO) test -run xxx -bench . -benchtime 1x .
	$(GO) test -run xxx -bench 'BenchmarkSimStep' -benchtime 3s ./internal/sim/

# Interleaved A/B run of the benchmark (perfbench) on the working tree
# against a revision: PAIRS alternating pairs of WORKLOAD runs, a fresh
# seed per pair, then each metric's median, quartiles and pair wins.
# WORKLOAD=all runs every workload BENCHMARK.json names, one summary each.
# It exits 1 when a change run is incorrect or fails more ops than its base
# run, or when an end-to-end metric is worse than its base run by more than
# its BENCHMARK.json bound in every pair. CI's bench-ab job runs it at
# PAIRS=3 on matrix-4c against the pull request's base.
PAIRS ?= 10
WORKLOAD ?= matrix-4c
bench-ab:
	bash scripts/bench_ab.sh $(REV) $(PAIRS) $(WORKLOAD)

# End-to-end gate for the serving layer: boot ptbserve with a store,
# hammer it with concurrent duplicate sweeps via ptbload (single-flight
# + warm hit-rate assertions), SIGTERM-drain, reboot on the same store
# and demand byte-identical digests. CI's serve-e2e job runs this.
serve-smoke:
	sh scripts/serve_smoke.sh

# Checkpoint/restore conformance (DESIGN.md §14): the short
# snapshot-at-midpoint matrix under the race detector, then every golden
# cell through the drill-and-resume cycle. CI's
# checkpoint-conformance job runs exactly this.
ckpt-conformance:
	$(GO) test -race -count=1 -v \
		-run 'TestCheckpointConformanceShort|TestCheckpointCrashDrillAndAutoResume|TestCheckpointFallsBackOnDamage|TestResumeContextExplicit|TestExperimentWithCheckpoint' .
	$(GO) test -race -count=1 -v ./internal/ckpt/
	$(GO) test -count=1 -v -run 'TestGoldenMatrixCheckpointConformance' .

# Crash-recovery e2e: boot ptbserve with journal + snapshots, SIGKILL it
# mid-sweep, reboot, and demand full recovery with byte-identical
# digests. CI's crash-e2e job runs this.
crash-e2e:
	sh scripts/crash_e2e.sh

# CPU- and heap-profile a representative full run. Every cmd tool takes
# -cpuprofile/-memprofile/-trace (internal/prof), so the same recipe
# works for ptbsweep, ptbreport, ptbchaos, ... See EXPERIMENTS.md
# "Profiling a run" for reading the output.
profile:
	$(GO) run ./cmd/ptbsim -bench ocean -cores 4 -tech ptb -scale 0.25 -nobase \
		-cpuprofile cpu.out -memprofile mem.out
	$(GO) tool pprof -top -nodecount 15 cpu.out

# Short exploratory fuzz of the parsing/validation surfaces (seed corpora
# under testdata/fuzz/ run on every plain `go test`).
fuzz:
	$(GO) test -run xxx -fuzz FuzzParseTechnique -fuzztime 30s .
	$(GO) test -run xxx -fuzz FuzzParsePolicy -fuzztime 30s .
	$(GO) test -run xxx -fuzz FuzzConfigValidate -fuzztime 30s .
	$(GO) test -run xxx -fuzz FuzzParseFaultSpec -fuzztime 30s .
	$(GO) test -run xxx -fuzz FuzzParseTelemetrySpec -fuzztime 30s .

fmt:
	gofmt -l -w .

# Non-test and test Go line counts of the working tree and their delta
# against a revision (default HEAD~1): the line delta a change reports.
REV ?= HEAD~1
loc:
	bash scripts/loc.sh $(REV)

vet:
	$(GO) vet ./...
