// Package prof gives every command-line tool the same three profiling
// flags — -cpuprofile, -memprofile and -trace — backed by the standard
// runtime/pprof and runtime/trace machinery, so any experiment can be
// profiled in place:
//
//	go run ./cmd/ptbsim -bench ocean -cpuprofile cpu.out
//	go tool pprof cpu.out
package prof

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
)

// Flags holds the values of the registered profiling flags.
type Flags struct {
	CPU   string
	Mem   string
	Trace string
}

// Register installs the profiling flags on fs and returns the struct their
// values land in. Call before fs.Parse.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.CPU, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&f.Mem, "memprofile", "", "write a heap profile to this file on exit")
	fs.StringVar(&f.Trace, "trace", "", "write a runtime execution trace to this file")
	return f
}

// Start begins whichever profiles were requested and returns the function
// that finishes them (stops the CPU profile and trace, writes the heap
// profile). The returned stop is safe to call more than once and must run
// before the process exits — defer it in main, and call it explicitly ahead
// of any os.Exit. With no flags set, Start is a no-op.
func (f *Flags) Start() (stop func(), err error) {
	var cpuF, traceF *os.File
	stopped := false
	stop = func() {
		if stopped {
			return
		}
		stopped = true
		if cpuF != nil {
			pprof.StopCPUProfile()
			cpuF.Close()
		}
		if traceF != nil {
			trace.Stop()
			traceF.Close()
		}
		if f.Mem != "" {
			memF, err := os.Create(f.Mem)
			if err != nil {
				fmt.Fprintf(os.Stderr, "prof: %v\n", err)
				return
			}
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(memF); err != nil {
				fmt.Fprintf(os.Stderr, "prof: writing heap profile: %v\n", err)
			}
			memF.Close()
		}
	}
	if f.CPU != "" {
		cpuF, err = os.Create(f.CPU)
		if err != nil {
			return nil, fmt.Errorf("prof: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuF); err != nil {
			cpuF.Close()
			return nil, fmt.Errorf("prof: starting CPU profile: %w", err)
		}
	}
	if f.Trace != "" {
		traceF, err = os.Create(f.Trace)
		if err != nil {
			stop()
			return nil, fmt.Errorf("prof: %w", err)
		}
		if err := trace.Start(traceF); err != nil {
			traceF.Close()
			traceF = nil
			stop()
			return nil, fmt.Errorf("prof: starting trace: %w", err)
		}
	}
	return stop, nil
}
