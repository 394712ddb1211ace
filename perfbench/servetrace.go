package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ptbsim"
	"ptbsim/internal/serve"
	"ptbsim/internal/store"
)

// inProcess hosts the service stack inside the benchmark, assembled from
// the constructors cmd/ptbserve uses with ptbserve's flag defaults and
// serve-cold's -par 1, so the traced run can wrap the result cache
// and the handler and profile both.
type inProcess struct {
	srv    *serve.Server
	jr     *store.Journal
	hs     *http.Server
	served chan error
	base   string
	cache  *timedCache
	mw     *timedHandler
}

func startInProcess(dir string) (*inProcess, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	hub := serve.NewHub()
	cache := &timedCache{inner: st}
	exp := ptbsim.NewExperiment(
		ptbsim.WithScale(0.25),
		ptbsim.WithParallelism(1),
		ptbsim.WithQueue(1024),
		ptbsim.WithObserver(0, hub),
		ptbsim.WithCache(cache),
	)
	srv := serve.New(exp, st, hub)
	jr, _, err := store.OpenJournal(filepath.Join(dir, "jobs.wal"))
	if err != nil {
		return nil, err
	}
	srv.AttachJournal(jr)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		jr.Close()
		return nil, err
	}
	mw := &timedHandler{next: srv.Handler(), ops: map[int]handled{}}
	p := &inProcess{srv: srv, jr: jr, hs: &http.Server{Handler: mw}, served: make(chan error, 1),
		base: "http://" + ln.Addr().String(), cache: cache, mw: mw}
	go func() { p.served <- p.hs.Serve(ln) }()
	return p, nil
}

// stop shuts the listener, drains the experiment and closes the journal,
// as ptbserve does on SIGTERM.
func (p *inProcess) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	err := p.hs.Shutdown(ctx)
	if serveErr := <-p.served; !errors.Is(serveErr, http.ErrServerClosed) && err == nil {
		err = serveErr
	}
	if drainErr := p.srv.Shutdown(ctx); err == nil {
		err = drainErr
	}
	if closeErr := p.jr.Close(); err == nil {
		err = closeErr
	}
	return err
}

// setTracing turns the cache and handler wrappers on or off.
func (p *inProcess) setTracing(on bool) {
	p.cache.on.Store(on)
	p.mw.on.Store(on)
}

// cacheCall is one timed ResultCache call; res is the result got or put,
// nil on a miss.
type cacheCall struct {
	key        string
	start, end time.Time
	res        *ptbsim.Result
}

// timedCache wraps the store as the experiment's ResultCache and, while
// on, records every Get and Put.
type timedCache struct {
	inner      ptbsim.ResultCache
	on         atomic.Bool
	mu         sync.Mutex
	gets, puts []cacheCall
}

func (c *timedCache) Get(key string) (*ptbsim.Result, bool) {
	if !c.on.Load() {
		return c.inner.Get(key)
	}
	t0 := time.Now()
	r, ok := c.inner.Get(key)
	t1 := time.Now()
	c.mu.Lock()
	c.gets = append(c.gets, cacheCall{key, t0, t1, r})
	c.mu.Unlock()
	return r, ok
}

func (c *timedCache) Put(key string, r *ptbsim.Result) {
	if !c.on.Load() {
		c.inner.Put(key, r)
		return
	}
	t0 := time.Now()
	c.inner.Put(key, r)
	t1 := time.Now()
	c.mu.Lock()
	c.puts = append(c.puts, cacheCall{key, t0, t1, r})
	c.mu.Unlock()
}

func (c *timedCache) Len() int { return c.inner.Len() }

// handled is one request the timed handler saw.
type handled struct {
	start, end time.Time
	bytes      int
}

// timedHandler is middleware around Server.Handler() that, while on,
// times each request carrying an op header and counts its response bytes.
type timedHandler struct {
	next http.Handler
	on   atomic.Bool
	mu   sync.Mutex
	ops  map[int]handled
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	op, err := strconv.Atoi(r.Header.Get(opHeader))
	if !h.on.Load() || err != nil {
		h.next.ServeHTTP(w, r)
		return
	}
	cw := &countingWriter{ResponseWriter: w}
	t0 := time.Now()
	h.next.ServeHTTP(cw, r)
	t1 := time.Now()
	h.mu.Lock()
	h.ops[op] = handled{t0, t1, cw.n}
	h.mu.Unlock()
}

type countingWriter struct {
	http.ResponseWriter
	n int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += n
	return n, err
}

// servedOp is what the client kept of one traced op.
type servedOp struct {
	start, end time.Time
	elapsedMS  float64
	digest     string
	cfg        ptbsim.Config // as the server normalized it
}

// traceServeCold is serve-cold's traced run: set-up, then n ops
// untraced, the next n traced and the next n untraced again on the same
// in-process server (the untraced rate is over both untraced blocks, so
// neither side of the overhead gets only the early or only the late
// server), then a replay of every distinct configuration the traced ops
// were answered with through the traced simulator path, whose digests must
// equal the served ones.
func traceServeCold(e *env) (*tracedRun, error) {
	const n = 100
	p, err := startInProcess(filepath.Join(e.scratch, "store"))
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			p.stop()
		}
	}()
	c := newClient(p.base)
	defer c.close()
	if err := coldSetUp(c); err != nil {
		return nil, err
	}
	ops, inputs := coldOps(e.seed, 3*n)
	tr := newTracedRun(fmt.Sprintf("%s; ops 0-%d and %d-%d untraced, %d-%d traced", inputs, n-1, 2*n, 3*n-1, n, 2*n-1))

	// block runs ops[from:from+n] and checks the /v1/stats delta over them.
	block := func(from int, do func(i int) error) (loopResult, error) {
		s0, err := c.stats()
		if err != nil {
			return loopResult{}, err
		}
		res := closedLoop(n, time.Time{}, func(i int) error { return do(from + i) })
		s1, err := c.stats()
		if err != nil {
			return loopResult{}, err
		}
		if err := coldProvenance(s1.minus(s0), n); err != nil {
			tr.problems = append(tr.problems, err.Error())
		}
		tr.attempted += res.attempted
		tr.failed += res.failed
		return res, nil
	}
	plain := func(i int) error {
		r, err := c.run(i, ops[i])
		if err == nil {
			err = wantFresh(r)
		}
		return err
	}
	before, err := block(0, plain)
	if err != nil {
		return nil, err
	}

	p.setTracing(true)
	if err := tr.begin(); err != nil {
		return nil, err
	}
	recs := make([]servedOp, n)
	var mu sync.Mutex
	traced, err := block(n, func(i int) error {
		t0 := time.Now()
		r, err := c.run(i, ops[i])
		if err == nil {
			err = wantFresh(r)
		}
		t1 := time.Now()
		if err != nil {
			return err
		}
		recs[i-n] = servedOp{t0, t1, r.ElapsedMS, r.Result.Digest(), r.Config}
		mu.Lock()
		tr.counts.add(r.Result)
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := tr.end(e, n); err != nil {
		return nil, err
	}
	p.setTracing(false)
	tr.traced = opsRate(len(traced.lat), traced.elapsed)

	after, err := block(2*n, plain)
	if err != nil {
		return nil, err
	}
	tr.untraced = opsRate(len(before.lat)+len(after.lat), before.elapsed+after.elapsed)
	tr.joinServing(p, recs, n)
	stopped = true
	if err := p.stop(); err != nil {
		return nil, err
	}

	replayed := map[string]*ptbsim.Result{}
	for i, rec := range recs {
		if rec.digest == "" || replayed[rec.digest] != nil {
			continue
		}
		r, err := tr.simOp(2*n+i, "", rec.cfg)
		if err != nil {
			return nil, fmt.Errorf("replaying %s/%s: %w", rec.cfg.Benchmark, rec.cfg.Technique, err)
		}
		if got := r.Digest(); got != rec.digest {
			tr.problems = append(tr.problems, fmt.Sprintf("replay differs from the served result:\n got  %s\n want %s", got, rec.digest))
		}
		replayed[rec.digest] = r
	}
	var again counts
	for _, rec := range recs {
		if r := replayed[rec.digest]; r != nil {
			again.add(r)
		}
	}
	tr.repeatOf("the traced replay of every served result", again)
	return tr, tr.timeJournal(e, ops[n:2*n])
}

// joinServing turns the wrappers' records into spans joined to the
// client's ops and into the serving-layer metrics. Handler records carry
// the op index; a cache call joins the op whose result has the same
// digest and whose handler was running when the call began. With one
// worker taking jobs in admission order, a fresh job's run begins when
// it was admitted (its cache miss) or when the previous job was stored,
// whichever is later: that splits the handler's wait into queue wait and
// run.
func (tr *tracedRun) joinServing(p *inProcess, recs []servedOp, base int) {
	byDigest := map[string][]int{}
	var handlerMS, overheadMS, elapsedMS, kb []float64
	for i, rec := range recs {
		if rec.digest == "" {
			continue
		}
		op := base + i
		tr.spans.add(op, "client.op", "", rec.start, rec.end)
		elapsedMS = append(elapsedMS, rec.elapsedMS)
		byDigest[rec.digest] = append(byDigest[rec.digest], i)
		if h, ok := p.mw.ops[op]; ok {
			tr.spans.add(op, "serve.handler", "client.op", h.start, h.end)
			handlerMS = append(handlerMS, ms(h.end.Sub(h.start)))
			overheadMS = append(overheadMS, ms(rec.end.Sub(rec.start)-h.end.Sub(h.start)))
			kb = append(kb, float64(h.bytes)/1024)
		}
	}
	opOf := func(c cacheCall) (int, bool) {
		for _, i := range byDigest[c.res.Digest()] {
			if h, ok := p.mw.ops[base+i]; ok && !c.start.Before(h.start) && !c.start.After(h.end) {
				return base + i, true
			}
		}
		return 0, false
	}

	type job struct {
		op                      int
		admit, putStart, putEnd time.Time
	}
	keyOp := map[string]int{}
	var putMS []float64
	jobs := map[string]*job{}
	for _, c := range p.cache.puts {
		putMS = append(putMS, ms(c.end.Sub(c.start)))
		if op, ok := opOf(c); ok {
			keyOp[c.key] = op
			tr.spans.add(op, "store.put", "serve.handler", c.start, c.end)
			jobs[c.key] = &job{op: op, putStart: c.start, putEnd: c.end}
		}
	}
	var getUS []float64
	hits := 0
	for _, c := range p.cache.gets {
		getUS = append(getUS, float64(c.end.Sub(c.start))/1e3)
		op, ok := keyOp[c.key]
		if c.res != nil {
			hits++
			op, ok = opOf(c)
		} else if j := jobs[c.key]; j != nil {
			j.admit = c.end
		}
		if ok {
			tr.spans.add(op, "store.get", "serve.handler", c.start, c.end)
		}
	}
	var order []*job
	for _, j := range jobs {
		if !j.admit.IsZero() {
			order = append(order, j)
		}
	}
	sort.Slice(order, func(a, b int) bool { return order[a].admit.Before(order[b].admit) })
	var waitMS, runMS []float64
	var prevEnd time.Time
	for _, j := range order {
		start := j.admit
		if prevEnd.After(start) {
			start = prevEnd
		}
		tr.spans.add(j.op, "sched.queue_wait", "serve.handler", j.admit, start)
		tr.spans.add(j.op, "sched.run", "serve.handler", start, j.putStart)
		waitMS = append(waitMS, ms(start.Sub(j.admit)))
		runMS = append(runMS, ms(j.putStart.Sub(start)))
		prevEnd = j.putEnd
	}

	stat := func(name, unit string, xs []float64, note string) {
		if len(xs) == 0 {
			return
		}
		if _, ok := percentile(xs, 50); !ok {
			note = "too few samples for a median; " + note
		}
		tr.serving[name] = servingStat{median(xs), unit, len(xs), note}
	}
	stat("serve.handler_ms", "ms", handlerMS, "median, middleware around Server.Handler()")
	stat("serve.elapsed_ms", "ms", elapsedMS, "median, server-reported elapsed_ms")
	stat("serve.response_kb", "KiB", kb, "median response body")
	stat("client.overhead_ms", "ms", overheadMS, "median, client latency minus handler time")
	stat("store.get_us", "us", getUS, "median ResultCache.Get")
	stat("store.put_ms", "ms", putMS, "median ResultCache.Put (store write-through)")
	stat("sched.queue_wait_ms", "ms", waitMS, "median, derived: admission to run start")
	stat("sched.run_ms", "ms", runMS, "median, derived: run start to store")
	if len(getUS) > 0 {
		tr.serving["store.hit_frac"] = servingStat{float64(hits) / float64(len(getUS)), "frac", len(getUS), "ResultCache.Get hits"}
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
