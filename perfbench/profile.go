package main

import (
	"bytes"
	"fmt"
	"os/exec"
	"strings"
	"time"
)

// clientLabel is the pprof label the traced serving runs put on their
// client goroutines; those samples are the benchmark's own load generator
// and are left out of the shares.
const clientLabel = "perfbench"

// packageShares reads a runtime/pprof CPU profile with `go tool pprof
// -traces` and attributes each sample to the innermost frame in a tracked
// package: a repository package (by its last path element, "ptbsim" for the
// root API), encoding/json, net/http, syscall, or the benchmark itself
// ("bench"). Frames of other packages, the runtime's included, pass their
// samples up to their caller; samples with no tracked frame count as
// "other". It returns each package's share of all samples not labelled as
// client load, and that sample count.
func packageShares(path string) (map[string]float64, int, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", "-tagignore", clientLabel+"=client", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof: %w: %s", err, stderr.String())
	}
	hits := map[string]time.Duration{}
	var total time.Duration
	var value time.Duration // of the sample being read; 0 before its stack
	pkg := ""
	flush := func() {
		if value > 0 {
			if pkg == "" {
				pkg = "other"
			}
			hits[pkg] += value
			total += value
		}
		value, pkg = 0, ""
	}
	for _, line := range strings.Split(string(out), "\n") {
		if strings.HasPrefix(line, "-----------+") {
			flush()
			continue
		}
		// A stack's first line is "<value>   <function>", the rest
		// "            <function>", innermost first.
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		if value == 0 {
			d, err := time.ParseDuration(f[0])
			if err != nil || len(f) < 2 {
				continue // header or label line
			}
			value, f = d, f[1:]
		}
		if pkg == "" {
			pkg = trackedPackage(f[0])
		}
	}
	flush()
	shares := map[string]float64{}
	for k, v := range hits {
		shares[k] = float64(v) / float64(total)
	}
	return shares, int(total / (10 * time.Millisecond)), nil
}

// trackedPackage maps a function name to its reported package, or "".
func trackedPackage(fn string) string {
	switch {
	case strings.HasPrefix(fn, "ptbsim/internal/"):
		rest := fn[len("ptbsim/internal/"):]
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i]
		}
	case strings.HasPrefix(fn, "ptbsim."):
		return "ptbsim"
	case strings.HasPrefix(fn, "main."):
		return "bench"
	case strings.HasPrefix(fn, "encoding/json."):
		return "encoding_json"
	case strings.HasPrefix(fn, "net/http."), strings.HasPrefix(fn, "net/http/"):
		return "net_http"
	case strings.HasPrefix(fn, "syscall."):
		return "syscall"
	}
	return ""
}
