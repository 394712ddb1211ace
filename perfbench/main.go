// Command perfbench is the repository's end-to-end benchmark. It drives the
// simulator through the public ptbsim API and the service through a child
// ptbserve process over loopback HTTP, checks every operation's output, and
// prints one JSON result object as the last line of standard output.
//
// Run it through run.sh from the repository root, which builds it and
// ptbserve from source first:
//
//	bash perfbench/run.sh --workload matrix-4c --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload serve-cold --seed 3 --seconds 20 --trace 1
//	bash perfbench/run.sh --steady 10 --sets 2 --workload matrix-4c --seconds 20
//
// See README.md for the workloads, the metrics and how to compare commits.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workload is one named set of inputs: run measures the end-to-end metrics
// (tracing off), trace the per-layer ones in a separate traced run.
type workload struct {
	name  string
	run   func(*env) (*timedRun, error)
	trace func(*env) (*tracedRun, error)
}

var workloads = []workload{
	{"matrix-4c", runMatrix, traceMatrix},
	{"serve-cold", runServeCold, traceServeCold},
}

// env is what every workload gets: where to find binaries and inputs, where
// to write, and the seed and length of the run.
type env struct {
	name    string // the workload's
	build   string // run.sh's build directory: binaries and Go caches
	out     string // reports that outlive the run
	scratch string // this run's scratch directory, removed on exit
	seed    int64
	seconds time.Duration
}

// outcome is the JSON object printed as the last line of standard output.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		build   = flag.String("build", ".bench_build", "build directory holding the binaries; reports go to its perfbench/ subdirectory")
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Int64("seed", 1, "workload-generation seed")
		seconds = flag.Int("seconds", 20, "length of the timed phase in seconds; matrix-4c runs on to the end of a pass and at least three passes")
		trace   = flag.Int("trace", 0, "1 runs the traced run and prints per-layer metrics")
		steady  = flag.Int("steady", 0, "steadiness report: run the workload this many times, each in a fresh process with its own seed")
		sets    = flag.Int("sets", 1, "with -steady: run that many sets and compare their medians")
	)
	flag.Parse()

	w, ok := findWorkload(*name)
	if !ok {
		fatalf("unknown workload %q (valid: %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		fatalf("-seconds must be at least 1 and -trace 0 or 1")
	}
	// The inputs are read relative to the repository root; failing here is
	// what a directory without the repository's sources gets.
	if _, err := os.Stat(matrixGolden); err != nil {
		fatalf("run from the repository root: %v", err)
	}
	out := filepath.Join(*build, "perfbench")
	if *steady > 0 {
		if err := steadiness(w.name, *build, *seconds, *steady, *sets, out); err != nil {
			fatalf("%v", err)
		}
		return
	}

	scratch := filepath.Join(out, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fatalf("%v", err)
	}
	e := &env{name: w.name, build: *build, out: out, scratch: scratch, seed: *seed, seconds: time.Duration(*seconds) * time.Second}
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%d trace=%d\n", w.name, *seed, *seconds, *trace)

	var res *outcome
	var err error
	if *trace == 1 {
		var tr *tracedRun
		if tr, err = w.trace(e); err == nil {
			res, err = tr.report(e)
		}
	} else {
		var t *timedRun
		if t, err = w.run(e); err == nil {
			res = t.report()
		}
	}
	if rmErr := os.RemoveAll(scratch); rmErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: removing scratch:", rmErr)
	}
	if err != nil {
		fatalf("%s: %v", w.name, err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// timedRun is what an untraced run measured. Wall times are what a caller
// waits; CPU times are what the process doing the work (the benchmark
// itself on matrix-4c, the ptbserve child on serve-cold) ran on a CPU,
// which leaves out the time the hypervisor gave its vCPU to others.
type timedRun struct {
	setups    []time.Duration // wall time of each full set-up
	setupCPU  []time.Duration // CPU time of each; setup_s is their median
	lat       []time.Duration // per-op latency of the timed phase
	elapsed   time.Duration   // timed phase: start to the last completed op
	cpuPerOp  time.Duration   // cpu_ms_per_op
	cpuBasis  string          // how cpuPerOp was taken
	attempted int
	failed    int
	// best is each golden cell's fastest wall-time repeat on matrix-4c;
	// empty on serve-cold.
	best     []time.Duration
	repeats  int           // whole passes behind best
	coreCyc  int64         // simulated core-cycles of the completed ops; 0 when none simulate
	rssKB    int64         // median 1-s window peak RSS of the process doing the work
	problems []string      // whole-run checks that failed
	inputs   string        // description and hash of the generated op list
	steal    time.Duration // host steal time over the timed phase
}

// selfCPU is the CPU time of this process so far, all threads, to the
// microsecond.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procCPU is the CPU time of another process so far, all threads, from
// /proc/<pid>/stat, to the clock tick.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name in parentheses may hold spaces; utime and stime are
	// the 12th and 13th fields after it.
	_, rest, ok := strings.Cut(string(data), ") ")
	f := strings.Fields(rest)
	if !ok || len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	var ticks int64
	for _, s := range f[11:13] {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/%d/stat: %w", pid, err)
		}
		ticks += n
	}
	return time.Duration(ticks) * time.Second / 100, nil // USER_HZ
}

// stealLine starts the summary line with the host's steal time over the
// timed phase: time the hypervisor ran something else on this machine's
// vCPUs. Runs of one commit slowed by up to three times during steal, so
// the steadiness report shows it next to each run's metrics.
const stealLine = "host steal during the timed phase, all vCPUs:"

// hostSteal reads the machine's cumulative steal time from /proc/stat; it
// is 0 where the kernel does not account it.
func hostSteal() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * time.Second / 100 // USER_HZ
}

// report prints the human-readable summary and returns the end-to-end
// metrics: setup_s, cpu_ms_per_op and peak_rss_mb. The wall-time rate and
// percentiles are printed with their sample counts, and on matrix-4c also
// from each cell's fastest repeat, with sim_mcycles_per_s where the timed
// phase simulates.
func (t *timedRun) report() *outcome {
	fmt.Printf("inputs: %s\n", t.inputs)
	setups, setupCPU := durationsMS(t.setups), durationsMS(t.setupCPU)
	fmt.Printf("setup: %d set-ups, median %.4f s CPU (ms: %s), %.4f s wall (ms: %s)\n", len(setups),
		median(setupCPU)/1000, joinFloats(setupCPU, "%.1f"), median(setups)/1000, joinFloats(setups, "%.1f"))
	fmt.Printf("timed: %d attempted, %d failed, %d completed in %.3f s\n",
		t.attempted, t.failed, len(t.lat), t.elapsed.Seconds())
	fmt.Printf("%s %.2f s\n", stealLine, t.steal.Seconds())
	for _, p := range t.problems {
		fmt.Printf("check failed: %s\n", p)
	}
	lat := durationsMS(t.lat)
	fmt.Printf("%-18s %.4f 1/s (wall, n=%d)\n", "ops_per_s", opsRate(len(t.lat), t.elapsed), len(t.lat))
	for _, p := range []float64{50, 90, 99} {
		name := fmt.Sprintf("op_p%.0f_ms", p)
		if v, ok := percentile(lat, p); ok {
			fmt.Printf("%-18s %.4f ms (wall, n=%d, %d beyond)\n", name, v, len(lat), beyond(len(lat), p))
		} else {
			fmt.Printf("%-18s not reported (n=%d, needs %d for 10 beyond)\n", name, len(lat), needed(p))
		}
	}
	if len(t.best) > 0 {
		var sum time.Duration
		for _, d := range t.best {
			sum += d
		}
		best := durationsMS(t.best)
		p50, _ := percentile(best, 50)
		fmt.Printf("fastest repeats    %.4f cells/s, cell p50 %.4f ms (wall, n=%d cells, %d repeats each)\n",
			opsRate(len(t.best), sum), p50, len(t.best), t.repeats)
	}
	if t.coreCyc > 0 {
		fmt.Printf("%-18s %.4f Mcycles/s (core-cycles, n=%d)\n", "sim_mcycles_per_s", float64(t.coreCyc)/t.elapsed.Seconds()/1e6, len(lat))
	}
	m := map[string]metric{
		"setup_s":       {median(setupCPU) / 1000, "s"},
		"cpu_ms_per_op": {float64(t.cpuPerOp) / 1e6, "ms"},
		"peak_rss_mb":   {float64(t.rssKB) / 1024, "MB"},
	}
	fmt.Printf("%-18s %.4f ms (%s)\n", "cpu_ms_per_op", m["cpu_ms_per_op"].Value, t.cpuBasis)
	fmt.Printf("%-18s %.4f MB\n", "peak_rss_mb", m["peak_rss_mb"].Value)
	return &outcome{
		Correct:   t.failed == 0 && len(t.problems) == 0 && t.attempted > 0 && t.cpuPerOp > 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   m,
	}
}

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

func joinFloats(xs []float64, format string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(format, x)
	}
	return strings.Join(parts, " ")
}

// peakRSSKB reads VmHWM, the resident-set high-water mark, of a process
// ("self" or a pid) from /proc.
func peakRSSKB(pid string) (int64, error) {
	data, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb int64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%d kB", &kb); err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// resetPeakRSS sets a process's VmHWM back to its current RSS, so the next
// read gives the peak since this call.
func resetPeakRSS(pid string) error {
	return os.WriteFile(filepath.Join("/proc", pid, "clear_refs"), []byte("5"), 0)
}

// rssWindows records a process's peak RSS in each one-second window of a
// timed phase. peak_rss_mb is their median: the peak of a whole run is one
// extreme of the garbage collector's timing and moved by a fifth between
// runs replaying the 64-core golden cells.
type rssWindows struct {
	pid   string
	stop  chan struct{}
	done  chan struct{}
	peaks []float64 // KB
	err   error
}

func startRSSWindows(pid string) (*rssWindows, error) {
	if err := resetPeakRSS(pid); err != nil {
		return nil, err
	}
	w := &rssWindows{pid: pid, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				if !w.window() {
					return
				}
			case <-w.stop:
				w.window() // the last, partial window
				return
			}
		}
	}()
	return w, nil
}

// window closes the current window and starts the next.
func (w *rssWindows) window() bool {
	kb, err := peakRSSKB(w.pid)
	if err == nil {
		err = resetPeakRSS(w.pid)
	}
	if err != nil {
		w.err = err
		return false
	}
	w.peaks = append(w.peaks, float64(kb))
	return true
}

// finish ends the last window and returns the median window peak in KB.
func (w *rssWindows) finish() (int64, error) {
	close(w.stop)
	<-w.done
	if w.err != nil {
		return 0, w.err
	}
	fmt.Printf("peak RSS per 1-s window (MB): median %.1f, min %.1f, max %.1f, n=%d\n",
		median(w.peaks)/1024, slices.Min(w.peaks)/1024, slices.Max(w.peaks)/1024, len(w.peaks))
	return int64(median(w.peaks)), nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
