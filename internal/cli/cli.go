// Package cli is the front end the simulation commands share. One Cmd
// holds an invocation's flag set, profiling, -o output file and
// -telemetry feed; Exit runs every cleanup those registered, on every
// exit path, and maps the invocation's error to one exit status:
//
//	0    success (or -h)
//	1    failure: a run failed, or a cleanup (closing -o, flushing the
//	     telemetry feed) did
//	2    usage error: bad flags, an unopenable -o or telemetry output
//	130  interrupted by SIGINT/SIGTERM
//
// Every command has the same shape, so it can be driven in-process by
// its tests:
//
//	func main() { cli.Main(run) }
//
//	func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
//		c := cli.New("ptbfoo", stdout, stderr)
//		outPath := c.Flags.String("o", "", "output file (default stdout)")
//		if err := c.Parse(args); err != nil {
//			return c.Exit(err)
//		}
//		out, err := c.Output(*outPath)
//		if err != nil {
//			return c.Exit(err)
//		}
//		// ... every later failure also returns c.Exit(err)
//		return c.Exit(nil)
//	}
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"ptbsim"
	"ptbsim/internal/prof"
)

// Main runs a command under a context that SIGINT and SIGTERM cancel, and
// exits with the status run returns.
func Main(run func(ctx context.Context, args []string, stdout, stderr io.Writer) int) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// Cmd is one command invocation.
type Cmd struct {
	// Flags is the command's flag set; the profiling flags (-cpuprofile,
	// -memprofile, -trace) are already registered on it.
	Flags *flag.FlagSet

	name           string // prefixes diagnostics ("ptbsim: interrupted")
	stdout, stderr io.Writer
	prof           *prof.Flags
	cleanups       []func() error
}

// New creates the invocation's flag set, reporting parse errors on stderr.
func New(name string, stdout, stderr io.Writer) *Cmd {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return &Cmd{Flags: fs, name: name, stdout: stdout, stderr: stderr, prof: prof.Register(fs)}
}

// usageError marks an error that exits with status 2. A nil err means
// the flag package has already reported it.
type usageError struct{ err error }

func (u *usageError) Error() string {
	if u.err == nil {
		return "usage error"
	}
	return u.err.Error()
}

func (u *usageError) Unwrap() error { return u.err }

// Usage marks err as a usage error (exit status 2).
func Usage(err error) error { return &usageError{err: err} }

// Parse parses args and starts the requested profiles, which Exit
// finishes after every other cleanup.
func (c *Cmd) Parse(args []string) error {
	if err := c.Flags.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return &usageError{}
	}
	stop, err := c.prof.Start()
	if err != nil {
		return Usage(err)
	}
	c.Defer(func() error { stop(); return nil })
	return nil
}

// Defer registers fn to run at Exit, in reverse registration order. An
// error from fn is reported and fails an otherwise successful run.
func (c *Cmd) Defer(fn func() error) { c.cleanups = append(c.cleanups, fn) }

// Output returns the writer behind an -o flag: stdout when path is
// empty, else the created file, which Exit closes and checks.
func (c *Cmd) Output(path string) (io.Writer, error) {
	if path == "" {
		return c.stdout, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, Usage(err)
	}
	c.Defer(f.Close)
	return f, nil
}

// Telemetry opens the feed a -telemetry flag asks for (nil when the flag
// was not given); Exit flushes and closes it, so the feed ends on a whole
// record however the run ends.
func (c *Cmd) Telemetry(spec *ptbsim.TelemetrySpec) (*ptbsim.Telemetry, error) {
	if spec == nil {
		return nil, nil
	}
	tel, closeTel, err := spec.Start()
	if err != nil {
		return nil, Usage(err)
	}
	c.Defer(func() error {
		if err := closeTel(); err != nil {
			return fmt.Errorf("telemetry: %w", err)
		}
		return nil
	})
	return tel, nil
}

// ExperimentTelemetry is Telemetry for a whole experiment: the options
// that merge every run's samples into the one feed.
func (c *Cmd) ExperimentTelemetry(spec *ptbsim.TelemetrySpec) ([]ptbsim.Option, error) {
	tel, err := c.Telemetry(spec)
	if tel == nil || err != nil {
		return nil, err
	}
	return []ptbsim.Option{ptbsim.WithObserver(tel.Every, tel.Observer), ptbsim.WithObserverRing(tel.Ring)}, nil
}

// Exit runs the registered cleanups, reports err on stderr and returns
// the exit status for it (see the package documentation).
func (c *Cmd) Exit(err error) int {
	cleanupFailed := false
	for i := len(c.cleanups) - 1; i >= 0; i-- {
		if e := c.cleanups[i](); e != nil {
			fmt.Fprintf(c.stderr, "%s: %v\n", c.name, e)
			cleanupFailed = true
		}
	}
	c.cleanups = nil
	var usage *usageError
	switch {
	case err == nil:
		if cleanupFailed {
			return 1
		}
		return 0
	case errors.Is(err, flag.ErrHelp):
		return 0
	case errors.As(err, &usage):
		if usage.err != nil {
			fmt.Fprintln(c.stderr, usage.err)
		}
		return 2
	case errors.Is(err, context.Canceled):
		fmt.Fprintf(c.stderr, "%s: interrupted\n", c.name)
		return 130
	}
	fmt.Fprintln(c.stderr, err)
	return 1
}
