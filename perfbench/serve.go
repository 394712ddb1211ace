package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ptbsim"
)

// callers is the closed-loop client count of serve-cold: each
// caller sends its next request only after its previous reply, as ptbload
// and sweep scripts do. Two callers on one worker keep exactly one
// simulation in flight and one queued.
const callers = 2

// opHeader carries the op index, so the traced server side can join its
// spans to the client's.
const opHeader = "X-Perfbench-Op"

// runReply is the POST /v1/runs wire form. Decoding Result goes through
// ptbsim's self-verifying JSON, which fails with ErrDigestMismatch when
// the embedded digest does not match the fields.
type runReply struct {
	Config    ptbsim.Config  `json:"config"`
	Result    *ptbsim.Result `json:"result"`
	Cached    bool           `json:"cached"`
	Coalesced bool           `json:"coalesced"`
	ElapsedMS float64        `json:"elapsed_ms"`
	Error     string         `json:"error"`
}

// serverStats is the part of GET /v1/stats the provenance check reads.
type serverStats struct {
	Runs      int64 `json:"runs"`
	Fresh     int64 `json:"fresh"`
	CacheHits int64 `json:"cache_hits"`
	Coalesced int64 `json:"coalesced"`
	Rejected  int64 `json:"rejected"`
	Failed    int64 `json:"failed"`
}

func (s serverStats) minus(o serverStats) serverStats {
	return serverStats{s.Runs - o.Runs, s.Fresh - o.Fresh, s.CacheHits - o.CacheHits,
		s.Coalesced - o.Coalesced, s.Rejected - o.Rejected, s.Failed - o.Failed}
}

type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: callers, DisableCompression: true},
		Timeout:   2 * time.Minute,
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// run POSTs one configuration and decodes the reply.
func (c *client) run(op int, cfg ptbsim.Config) (*runReply, error) {
	body, err := json.Marshal(map[string]ptbsim.Config{"config": cfg})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequest(http.MethodPost, c.base+"/v1/runs", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(opHeader, strconv.Itoa(op))
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var r runReply
	if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
		return nil, fmt.Errorf("decoding reply (status %d): %w", resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, r.Error)
	}
	if r.Result == nil {
		return nil, errors.New("reply without a result")
	}
	if r.Result.Benchmark != cfg.Benchmark || r.Result.Cores != cfg.Cores || r.Result.Technique != cfg.Technique || r.Config.BudgetFrac != cfg.BudgetFrac {
		return nil, fmt.Errorf("reply for %s/%d/%s budget %g answers %s/%d/%s budget %g",
			cfg.Benchmark, cfg.Cores, cfg.Technique, cfg.BudgetFrac,
			r.Result.Benchmark, r.Result.Cores, r.Result.Technique, r.Config.BudgetFrac)
	}
	return &r, nil
}

func (c *client) stats() (serverStats, error) {
	var s serverStats
	resp, err := c.hc.Get(c.base + "/v1/stats")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("/v1/stats: status %d", resp.StatusCode)
	}
	return s, json.NewDecoder(resp.Body).Decode(&s)
}

// loopResult is what a closed loop measured.
type loopResult struct {
	lat               []time.Duration
	elapsed           time.Duration // start to the last completed op
	attempted, failed int
}

// closedLoop runs ops 0..n-1 on `callers` callers, each sending its next
// op only after the previous one returned, until the ops run out or the
// deadline (if set) has passed; ops already sent then finish and count. do
// performs op i and returns an error when its output is wrong. The
// callers carry the client pprof label, so a traced run's profile can
// leave the load generator out.
func closedLoop(n int, deadline time.Time, do func(i int) error) loopResult {
	var (
		mu   sync.Mutex
		next int
		res  loopResult
		wg   sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go pprof.Do(context.Background(), pprof.Labels(clientLabel, "client"), func(context.Context) {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				if i >= n || (!deadline.IsZero() && !time.Now().Before(deadline)) {
					mu.Unlock()
					return
				}
				next++
				mu.Unlock()
				t0 := time.Now()
				err := do(i)
				t1 := time.Now()
				mu.Lock()
				res.attempted++
				if err != nil {
					res.failed++
					if res.failed <= 5 {
						fmt.Printf("op %d failed: %v\n", i, err)
					}
				} else {
					res.lat = append(res.lat, t1.Sub(t0))
					res.elapsed = max(res.elapsed, t1.Sub(start))
				}
				mu.Unlock()
			}
		})
	}
	wg.Wait()
	return res
}

// childServer is a ptbserve process started by the benchmark.
type childServer struct {
	cmd  *exec.Cmd
	base string
	log  string
	done chan error
}

// startServer boots `ptbserve -store dir -par 1` on a free loopback port
// and waits until it answers /healthz.
func startServer(e *env, dir string) (*childServer, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		s, err := tryStartServer(e, dir)
		if err == nil {
			return s, nil
		}
		lastErr = err // most likely the free port was taken meanwhile
	}
	return nil, lastErr
}

func tryStartServer(e *env, dir string) (*childServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	logPath := dir + ".log"
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(filepath.Join(e.build, "bin", "ptbserve"), "-addr", addr, "-store", dir, "-par", "1")
	cmd.Stdout, cmd.Stderr = logf, logf
	// A benchmark killed from outside takes its server with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &childServer{cmd: cmd, base: "http://" + addr, log: logPath, done: make(chan error, 1)}
	go func() { s.done <- cmd.Wait() }()
	hc := &http.Client{Timeout: time.Second}
	defer hc.CloseIdleConnections()
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); {
		select {
		case err := <-s.done:
			s.done <- err
			return nil, fmt.Errorf("ptbserve exited during boot (%v); log %s:\n%s", err, logPath, tail(logPath))
		default:
		}
		resp, err := hc.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.stop()
	return nil, fmt.Errorf("ptbserve did not answer /healthz within 30s; log %s:\n%s", logPath, tail(logPath))
}

// stop asks the server to drain and exit, kills it if it does not, and
// waits until it has ended.
func (s *childServer) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	select {
	case err := <-s.done:
		return err
	case <-time.After(20 * time.Second):
		s.cmd.Process.Kill()
		<-s.done
		return errors.New("ptbserve did not drain within 20s; killed")
	}
}

func tail(path string) string {
	data, _ := os.ReadFile(path) // diagnostics only
	if len(data) > 2000 {
		data = data[len(data)-2000:]
	}
	return string(data)
}

// coldOpsPerS sizes serve-cold's op list: ops/s above any real rate. One
// worker runs one simulation at a time, and a 4-core run takes about 55 ms
// at any scale.
const coldOpsPerS = 100

// coldSetUp sends serve-cold's set-up to a fresh server: the fixed fresh
// simulations of coldWarmUp, sent like the timed phase's ops.
func coldSetUp(c *client) error {
	warm := coldWarmUp()
	res := closedLoop(len(warm), time.Time{}, func(i int) error {
		r, err := c.run(-1, warm[i])
		if err == nil {
			err = wantFresh(r)
		}
		return err
	})
	if res.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d failed", res.failed, len(warm))
	}
	return nil
}

// coldOps returns the timed phase's op list for a seed and a capacity.
func coldOps(seed int64, n int) ([]ptbsim.Config, string) {
	cfgs := coldConfigs(seed, n)
	return cfgs, fmt.Sprintf("%d distinct configs drawn, %s", n, inputHash(cfgs))
}

// coldProvenance checks the /v1/stats delta over a timed phase: every op
// was exactly one fresh simulation.
func coldProvenance(d serverStats, ops int) error {
	if d.Fresh != int64(ops) || d.Coalesced != 0 || d.CacheHits != 0 || d.Failed != 0 {
		return fmt.Errorf("/v1/stats over the timed phase: %+v, want fresh == %d ops and nothing else", d, ops)
	}
	return nil
}

func wantFresh(r *runReply) error {
	if r.Cached || r.Coalesced {
		return fmt.Errorf("%s/%s: answered from cache (cached=%t coalesced=%t), want a fresh simulation",
			r.Result.Benchmark, r.Result.Technique, r.Cached, r.Coalesced)
	}
	return nil
}

// runServeCold is the untraced run: set-ups on fresh servers, each stopped
// but the last, whose timed phase is measured.
func runServeCold(e *env) (*timedRun, error) {
	t := &timedRun{}
	var srv *childServer
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	for i := 0; i < setups; i++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return nil, err
			}
			srv = nil
		}
		start, cpu := time.Now(), selfCPU()
		s, err := startServer(e, filepath.Join(e.scratch, fmt.Sprintf("store-%d", i)))
		if err != nil {
			return nil, err
		}
		srv = s
		c := newClient(srv.base)
		err = coldSetUp(c)
		c.close()
		if err != nil {
			return nil, err
		}
		t.setups = append(t.setups, time.Since(start))
		srvCPU, err := procCPU(srv.cmd.Process.Pid)
		if err != nil {
			return nil, err
		}
		t.setupCPU = append(t.setupCPU, srvCPU+selfCPU()-cpu)
	}

	ops, inputs := coldOps(e.seed, min(int(e.seconds.Seconds())*coldOpsPerS, coldBudgets))
	t.inputs = inputs
	c := newClient(srv.base)
	defer c.close()
	before, err := c.stats()
	if err != nil {
		return nil, err
	}
	rss, err := startRSSWindows(strconv.Itoa(srv.cmd.Process.Pid))
	if err != nil {
		return nil, err
	}
	steal := hostSteal()
	cpu0, err := procCPU(srv.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	var coreCyc atomic.Int64
	res := closedLoop(len(ops), time.Now().Add(e.seconds), func(i int) error {
		r, err := c.run(i, ops[i])
		if err == nil {
			err = wantFresh(r)
		}
		if err == nil {
			coreCyc.Add(r.Result.Cycles * int64(r.Result.Cores))
		}
		return err
	})
	t.steal = hostSteal() - steal
	cpu1, err := procCPU(srv.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	if n := len(res.lat); n > 0 {
		t.cpuPerOp = (cpu1 - cpu0) / time.Duration(n)
	}
	t.cpuBasis = fmt.Sprintf("ptbserve's CPU time over the timed phase / %d completed ops", len(res.lat))
	if t.rssKB, err = rss.finish(); err != nil {
		return nil, err
	}
	after, err := c.stats()
	if err != nil {
		return nil, err
	}
	if res.attempted == len(ops) {
		t.problems = append(t.problems, "the op list ran out before the deadline")
	}
	if err := coldProvenance(after.minus(before), res.attempted); err != nil {
		t.problems = append(t.problems, err.Error())
	}
	t.lat, t.elapsed, t.attempted, t.failed = res.lat, res.elapsed, res.attempted, res.failed
	t.coreCyc = coreCyc.Load()
	err = srv.stop()
	srv = nil
	return t, err
}
