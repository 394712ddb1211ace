// Command ptbserve runs the experiment engine as a long-running HTTP
// service: clients POST configurations or sweep cross-products as JSON
// (the same stable wire schema as `ptbsim -json`), the server simulates
// them on a bounded priority queue with single-flight deduplication, and
// every result lands in a digest-verified on-disk cache that survives
// restarts. Live telemetry streams over SSE at /v1/telemetry.
//
// Usage:
//
//	ptbserve -addr :8177 -store /var/lib/ptbsim
//	ptbserve -addr :8177 -par 8 -queue 256 -scale 0.25
//
//	curl -s localhost:8177/v1/runs -d '{"config":{"benchmark":"fft","cores":8,"technique":"ptb"}}'
//	curl -s localhost:8177/v1/stats
//	curl -N localhost:8177/v1/telemetry
//
// Backpressure: with -queue set, a full queue answers 429 with a
// Retry-After header. SIGTERM/SIGINT stop the listener, finish every
// accepted job, flush the store, and exit 0; a second signal aborts.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"ptbsim"
	"ptbsim/internal/serve"
	"ptbsim/internal/store"
)

func main() {
	var (
		addr     = flag.String("addr", ":8177", "listen address")
		par      = flag.Int("par", runtime.NumCPU(), "parallel simulations (worker pool size)")
		queueCap = flag.Int("queue", 1024, "max queued configurations before 429 backpressure (0 = unbounded)")
		storeDir = flag.String("store", "", "persistent result-cache directory (empty = in-memory only)")
		scale    = flag.Float64("scale", 0.25, "default workload scale for configs that leave it zero")
		every    = flag.Int64("every", 0, "telemetry sampling period in cycles for the SSE feed (0 = default)")
		check    = flag.Bool("check", false, "enable runtime invariant checks on every run")
		drainFor = flag.Duration("drain", 5*time.Minute, "graceful-shutdown budget for finishing accepted jobs")
	)
	var checkpoint ptbsim.CheckpointFlag
	flag.Var(&checkpoint, "checkpoint",
		"periodic per-run snapshots, e.g. every=1000000,dir=/var/lib/ptbsim/ckpt; interrupted runs resume from the latest snapshot on replay")
	flag.Parse()

	hub := serve.NewHub()
	opts := []ptbsim.Option{
		ptbsim.WithScale(*scale),
		ptbsim.WithParallelism(*par),
		ptbsim.WithQueue(*queueCap),
		ptbsim.WithObserver(*every, hub),
	}
	if *check {
		opts = append(opts, ptbsim.WithInvariants())
	}
	if checkpoint.Spec != nil {
		ck := checkpoint.Spec.Checkpoint()
		ck.StopAfter = 0 // the stop=K crash drill is for sweeps; a server never aborts its own runs
		opts = append(opts, ptbsim.WithCheckpoint(ck))
	}
	var st *store.Store
	if *storeDir != "" {
		var err error
		st, err = store.Open(*storeDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ptbserve:", err)
			os.Exit(2)
		}
		if rej := st.Rejected(); len(rej) > 0 {
			fmt.Fprintf(os.Stderr, "ptbserve: store: quarantined %d corrupt entries: %v\n", len(rej), rej)
		}
		fmt.Fprintf(os.Stderr, "ptbserve: store %s: %d results loaded\n", st.Dir(), st.Len())
		opts = append(opts, ptbsim.WithCache(st))
	}
	exp := ptbsim.NewExperiment(opts...)
	srv := serve.New(exp, st, hub)

	// Crash recovery: with a persistent store, accepted jobs ride a
	// write-ahead journal. Replay whatever the last process left pending —
	// completed jobs resolve as cache hits, interrupted ones recompute (or
	// resume from their latest snapshot with -checkpoint) — so a SIGKILL
	// loses zero accepted jobs.
	var jr *store.Journal
	if *storeDir != "" {
		var pending []store.JournalRecord
		var err error
		jr, pending, err = store.OpenJournal(filepath.Join(*storeDir, "jobs.wal"))
		if err != nil {
			fmt.Fprintln(os.Stderr, "ptbserve:", err)
			os.Exit(2)
		}
		defer jr.Close()
		if torn := jr.Torn(); torn > 0 {
			fmt.Fprintf(os.Stderr, "ptbserve: journal: dropped %d torn record(s) from the last crash\n", torn)
		}
		srv.AttachJournal(jr)
		if len(pending) > 0 {
			n, err := srv.ReplayJournal(context.Background(), pending)
			if err != nil {
				fmt.Fprintln(os.Stderr, "ptbserve:", err)
				os.Exit(2)
			}
			fmt.Fprintf(os.Stderr, "ptbserve: journal: replaying %d interrupted job(s)\n", n)
		}
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "ptbserve: listening on %s (par=%d queue=%d scale=%g)\n",
			*addr, *par, *queueCap, *scale)
		errc <- httpSrv.ListenAndServe()
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "ptbserve:", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	stop() // a second signal kills the process the default way

	fmt.Fprintln(os.Stderr, "ptbserve: shutting down: draining accepted jobs")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainFor)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "ptbserve: http shutdown:", err)
	}
	if err := srv.Shutdown(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "ptbserve:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "ptbserve: drained cleanly")
}
