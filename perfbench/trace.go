package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"ptbsim"
	"ptbsim/internal/store"
)

// span is one call into a layer. Spans of one op share Op; Parent names
// the enclosing span of the same op.
type span struct {
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"` // since the traced phase began
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func (t *tracer) add(op int, name, parent string, start, end time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, span{op, name, parent, start.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds()})
	t.mu.Unlock()
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	name    string
	n       int
	totalMS float64
	selfMS  float64
	durMS   []float64
}

// stats aggregates spans by name. A span's self time is its duration minus
// the part of its interval covered by its children: the spans of the same
// op whose parent is its name.
func (t *tracer) stats() []*spanStat {
	children := map[string][]span{}
	for _, s := range t.spans {
		if s.Parent != "" {
			k := fmt.Sprintf("%d/%s", s.Op, s.Parent)
			children[k] = append(children[k], s)
		}
	}
	by := map[string]*spanStat{}
	var out []*spanStat
	for _, s := range t.spans {
		st, ok := by[s.Name]
		if !ok {
			st = &spanStat{name: s.Name}
			by[s.Name] = st
			out = append(out, st)
		}
		d := float64(s.End-s.Start) / 1e6
		st.n++
		st.totalMS += d
		st.durMS = append(st.durMS, d)
		st.selfMS += d - covered(s, children[fmt.Sprintf("%d/%s", s.Op, s.Name)])/1e6
	}
	return out
}

// covered is the length, in ns, of the union of the children's intervals
// clipped to s.
func covered(s span, kids []span) float64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, s.Start), min(k.End, s.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = s.Start
	for _, v := range ivs {
		if v.a < end {
			v.a = end
		}
		if v.b > v.a {
			total += v.b - v.a
			end = v.b
		}
	}
	return float64(total)
}

// counts are exact simulated quantities summed over a run's Results. A
// deterministic simulator repeats them exactly, so later changes can
// compare host time per simulated event.
type counts struct {
	Cycles        int64 `json:"sim.cycles"`
	Committed     int64 `json:"cpu.committed"`
	NoCMessages   int64 `json:"mesh.noc_messages"`
	NoCFlits      int64 `json:"mesh.noc_flits"`
	CohTxns       int64 `json:"cache.coh_txns"`
	BalanceRounds int64 `json:"core.balance_rounds"`
}

func (c *counts) add(r *ptbsim.Result) {
	c.Cycles += r.Cycles
	c.Committed += r.Committed
	c.NoCMessages += r.NoCMessages
	c.NoCFlits += r.NoCFlits
	c.CohTxns += r.CohGetS + r.CohGetX + r.CohPut + r.CohFwd + r.CohInv
	c.BalanceRounds += r.BalanceRounds
}

// addDigest adds the counts a golden digest line pins (see Result.Digest).
func (c *counts) addDigest(line string) {
	for _, field := range strings.Fields(line) {
		k, v, ok := strings.Cut(field, "=")
		if !ok {
			continue
		}
		var nums []int64
		for _, s := range strings.Split(v, "/") {
			n, err := strconv.ParseInt(s, 10, 64)
			if err != nil {
				nums = nil
				break
			}
			nums = append(nums, n)
		}
		switch {
		case k == "cycles" && len(nums) == 1:
			c.Cycles += nums[0]
		case k == "committed" && len(nums) == 1:
			c.Committed += nums[0]
		case k == "rounds" && len(nums) == 1:
			c.BalanceRounds += nums[0]
		case k == "coh" && len(nums) == 5:
			c.CohTxns += nums[0] + nums[1] + nums[2] + nums[3] + nums[4]
		case k == "noc" && len(nums) == 2:
			c.NoCMessages += nums[0]
			c.NoCFlits += nums[1]
		}
	}
}

// simLayer accumulates what the traced sim.NewSystem and System.RunContext
// calls measured.
type simLayer struct {
	systems        int
	cycles, fast   int64
	run, newSystem time.Duration
}

// tracedRun is what a traced run measured.
type tracedRun struct {
	inputs            string
	spans             tracer
	attempted, failed int
	problems          []string
	untraced, traced  float64 // ops/s of the same op list without and with tracing
	counts            counts
	sim               simLayer
	journalMS         []float64
	repeated          string // what the exact counts were found to repeat

	profBuf     bytes.Buffer
	rtm0        []metrics.Sample
	profShares  map[string]float64
	profSamples int
	tracedOps   int
	gcFrac      float64
	allocMB     float64 // per traced op

	serving map[string]servingStat // per-layer serving numbers, serve-* only
}

// servingStat is a serving-layer timing with its sample count.
type servingStat struct {
	value float64
	unit  string
	n     int
	note  string
}

func newTracedRun(inputs string) *tracedRun {
	return &tracedRun{inputs: inputs, serving: map[string]servingStat{}}
}

var rtmNames = []string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds", "/gc/heap/allocs:bytes"}

func readRTM() []metrics.Sample {
	s := make([]metrics.Sample, len(rtmNames))
	for i, n := range rtmNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func rtmValue(v metrics.Value) float64 {
	switch v.Kind() {
	case metrics.KindFloat64:
		return v.Float64()
	case metrics.KindUint64:
		return float64(v.Uint64())
	}
	return 0
}

// begin starts the traced phase: spans are timed from here, the CPU
// profiler runs, and runtime counters are snapshotted.
func (tr *tracedRun) begin() error {
	runtime.GC()
	tr.spans.t0 = time.Now()
	tr.rtm0 = readRTM()
	return pprof.StartCPUProfile(&tr.profBuf)
}

// end stops the traced phase, writes the CPU profile to the output
// directory and derives the profile shares and runtime ratios over its ops.
func (tr *tracedRun) end(e *env, ops int) error {
	pprof.StopCPUProfile()
	rtm1 := readRTM()
	d := func(i int) float64 { return rtmValue(rtm1[i].Value) - rtmValue(tr.rtm0[i].Value) }
	if total := d(1); total > 0 {
		tr.gcFrac = d(0) / total
	}
	tr.tracedOps = ops
	if ops > 0 {
		tr.allocMB = d(2) / float64(ops) / (1 << 20)
	}
	path := filepath.Join(e.out, fmt.Sprintf("trace-%s-seed%d.cpu.pprof", e.name, e.seed))
	if err := os.WriteFile(path, tr.profBuf.Bytes(), 0o644); err != nil {
		return err
	}
	var err error
	tr.profShares, tr.profSamples, err = packageShares(path)
	return err
}

// timeJournal times store.Journal.Accept directly on the run's
// accepted-job sequence, in scratch: each config is accepted (fsync'd)
// and then marked done, as ptbserve does for every answered submission.
func (tr *tracedRun) timeJournal(e *env, cfgs []ptbsim.Config) error {
	jr, _, err := store.OpenJournal(filepath.Join(e.scratch, "journal", "jobs.wal"))
	if err != nil {
		return err
	}
	defer jr.Close()
	for _, cfg := range cfgs {
		data, err := json.Marshal(cfg)
		if err != nil {
			return err
		}
		sum := sha256.Sum256(data)
		id := fmt.Sprintf("%x", sum[:12])
		t0 := time.Now()
		if err := jr.Accept(store.JournalRecord{ID: id, Config: data}); err != nil {
			return err
		}
		tr.journalMS = append(tr.journalMS, float64(time.Since(t0))/1e6)
		jr.Done(id)
	}
	return jr.Err()
}

// profPackages are the packages whose pprof self share is reported: the
// repository's layers plus the standard-library ones the service spends
// its time in.
var profPackages = []string{
	"cpu", "workload", "xrand", "eventq", "power", "cache", "mesh", "budget", "core", "dvfs",
	"partition", "invariant", "metrics", "thermal", "syncprim", "sim", "obs",
	"ptbsim", "sched", "serve", "store", "encoding_json", "net_http", "syscall",
}

// report prints the per-layer table, writes it and the spans to the output
// directory, checks that the exact counts repeat, and returns the
// per-layer metrics.
func (tr *tracedRun) report(e *env) (*outcome, error) {
	name := e.name
	var b strings.Builder
	fmt.Fprintf(&b, "# perfbench traced run: %s, seed %d\n\n", name, e.seed)
	fmt.Fprintf(&b, "inputs: %s\n\n", tr.inputs)
	fmt.Fprintf(&b, "ops: %d attempted, %d failed\n\n", tr.attempted, tr.failed)
	if tr.repeated != "" {
		fmt.Fprintf(&b, "%s\n", tr.repeated)
	}
	overhead := 0.0
	if tr.untraced > 0 {
		overhead = 1 - tr.traced/tr.untraced
	}
	fmt.Fprintf(&b, "tracing overhead: %.4f ops/s untraced, %.4f ops/s traced, %.2f%% slower traced\n\n",
		tr.untraced, tr.traced, 100*overhead)

	fmt.Fprintf(&b, "## Spans (self = span minus its children)\n\n| span | n | total ms | self ms | median ms |\n|---|---:|---:|---:|---:|\n")
	for _, s := range tr.spans.stats() {
		fmt.Fprintf(&b, "| %s | %d | %.3f | %.3f | %.4f |\n", s.name, s.n, s.totalMS, s.selfMS, median(s.durMS))
	}

	m := map[string]metric{}
	fastFrac, nsPerCycle, newSysMS := 0.0, 0.0, 0.0
	if tr.sim.cycles > 0 {
		fastFrac = float64(tr.sim.fast) / float64(tr.sim.cycles)
		nsPerCycle = float64(tr.sim.run.Nanoseconds()) / float64(tr.sim.cycles)
	}
	if tr.sim.systems > 0 {
		newSysMS = float64(tr.sim.newSystem) / 1e6 / float64(tr.sim.systems)
	}
	m["sim.ns_per_cycle"] = metric{nsPerCycle, "ns"}
	m["sim.fast_cycle_frac"] = metric{fastFrac, "frac"}
	m["sim.new_system_ms"] = metric{newSysMS, "ms"}
	for _, p := range profPackages {
		m["prof."+p+".self_frac"] = metric{tr.profShares[p], "frac"}
	}
	cj, err := json.Marshal(tr.counts)
	if err != nil {
		return nil, err
	}
	var cm map[string]int64
	if err := json.Unmarshal(cj, &cm); err != nil {
		return nil, err
	}
	for k, v := range cm {
		m[k] = metric{float64(v), "count"}
	}
	m["store.journal_accept_ms"] = metric{median(tr.journalMS), "ms"}
	m["runtime.gc_cpu_frac"] = metric{tr.gcFrac, "frac"}
	m["runtime.alloc_mb_per_op"] = metric{tr.allocMB, "MB"}
	m["trace.overhead_frac"] = metric{overhead, "frac"}

	fmt.Fprintf(&b, "\n## Per-layer metrics\n\n| metric | value | unit | samples |\n|---|---:|---|---|\n")
	samples := map[string]string{
		"sim.ns_per_cycle":        fmt.Sprintf("%d systems, %d cycles", tr.sim.systems, tr.sim.cycles),
		"sim.fast_cycle_frac":     fmt.Sprintf("%d cycles", tr.sim.cycles),
		"sim.new_system_ms":       fmt.Sprintf("mean of %d", tr.sim.systems),
		"store.journal_accept_ms": fmt.Sprintf("median of %d", len(tr.journalMS)),
		"runtime.alloc_mb_per_op": fmt.Sprintf("%d traced ops", tr.tracedOps),
		"runtime.gc_cpu_frac":     "traced phase",
		"trace.overhead_frac":     fmt.Sprintf("%d ops traced, twice that untraced", tr.tracedOps),
	}
	for _, p := range profPackages {
		samples["prof."+p+".self_frac"] = fmt.Sprintf("%d samples", tr.profSamples)
	}
	for k := range cm {
		samples[k] = fmt.Sprintf("exact, summed over %d traced results", tr.tracedOps)
	}
	for _, k := range sortedKeys(m) {
		fmt.Fprintf(&b, "| %s | %.6g | %s | %s |\n", k, m[k].Value, m[k].Unit, samples[k])
	}
	if len(tr.serving) > 0 {
		fmt.Fprintf(&b, "\n## Serving layers\n\n| metric | value | unit | samples | note |\n|---|---:|---|---:|---|\n")
		for _, k := range sortedKeys(tr.serving) {
			s := tr.serving[k]
			fmt.Fprintf(&b, "| %s | %.6g | %s | %d | %s |\n", k, s.value, s.unit, s.n, s.note)
		}
	}
	other := 0.0
	for k, v := range tr.profShares {
		if !contains(profPackages, k) {
			other += v
		}
	}
	fmt.Fprintf(&b, "\nprofile: %d samples; %.4f of them in no reported package (runtime background, the benchmark itself)\n", tr.profSamples, other)
	for _, p := range tr.problems {
		fmt.Fprintf(&b, "\ncheck failed: %s\n", p)
	}

	base := filepath.Join(e.out, fmt.Sprintf("trace-%s-seed%d", name, e.seed))
	if err := os.WriteFile(base+".md", []byte(b.String()), 0o644); err != nil {
		return nil, err
	}
	spans, err := json.Marshal(tr.spans.spans)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(base+".spans.json", spans, 0o644); err != nil {
		return nil, err
	}
	fmt.Print(b.String())
	fmt.Printf("report: %s.md\n", base)
	return &outcome{
		Correct:   tr.failed == 0 && len(tr.problems) == 0 && tr.attempted > 0,
		Attempted: tr.attempted,
		Failed:    tr.failed,
		Metrics:   m,
	}, nil
}

// repeatOf checks that the traced ops' exact counts equal the same ops'
// counts computed a second time, in this run: a deterministic simulator
// repeats them exactly.
func (tr *tracedRun) repeatOf(what string, again counts) {
	if again != tr.counts {
		tr.problems = append(tr.problems, fmt.Sprintf("exact counts %+v differ from %s: %+v", tr.counts, what, again))
		return
	}
	tr.repeated += "exact counts repeat exactly in " + what + "\n"
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
