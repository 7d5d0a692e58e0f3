package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	goruntime "runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"tlrchol/internal/serve"
)

// serveSpec is one workload driven against the tlrserve binary over
// loopback HTTP, open loop, from nproc keep-alive connections.
type serveSpec struct {
	n, tile int
	tol     float64
	// rungs is the solve-rate ladder, run in order.
	rungs []rung
	// latencyRung is the rung whose solves give solve_p50_ms and
	// solve_p99_ms.
	latencyRung int
}

// rung is one fixed offered rate of the ladder.
type rung struct {
	// rate is the offered single-RHS solves per second.
	rate float64
	// share is the rung's part of the measured time.
	share float64
	// overload marks a rung offered above what nproc connections can
	// carry: it measures the completed rate (sat_rate_rps), and its
	// solves still unsent when it ends are dropped, not sent late.
	overload bool
}

var serveWorkloads = map[string]serveSpec{
	"serve-hot": {n: 2048, tile: 128, tol: 1e-6, latencyRung: 1, rungs: []rung{
		{rate: 50, share: 0.12},
		{rate: 150, share: 0.68},
		{rate: 600, share: 0.2, overload: true},
	}},
}

const (
	// maxLateMS bounds the generator's own lag (due time to hand-off)
	// at the solve path's 20 ms latency limit: when more than a tenth
	// of the scored requests left it later than this, the schedule was
	// not kept and the run is invalid.
	maxLateMS = 20
	// serveSetups is how many times a serve run starts and primes a
	// server; setup_s is their median.
	serveSetups = 7
	// primeGeometrySeed is the geometry of the primed factor: the
	// server's default population.
	primeGeometrySeed = 42
)

// invalidRun marks a run whose measurement cannot be scored.
type invalidRun struct{ msg string }

func (e invalidRun) Error() string { return e.msg }

// server is one tlrserve child process.
type server struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	exited chan struct{}
}

// live holds the running servers, so a signal to the benchmark can
// stop them before it exits.
var live = struct {
	sync.Mutex
	m map[*server]bool
}{m: map[*server]bool{}}

// stopAll stops every running server.
func stopAll() {
	live.Lock()
	servers := make([]*server, 0, len(live.m))
	for s := range live.m {
		servers = append(servers, s)
	}
	live.Unlock()
	for _, s := range servers {
		s.stop()
	}
}

// startServer launches tlrserve in its default single-server mode on a
// free loopback port and waits until /v1/stats answers.
func startServer(o options, trace bool) (*server, error) {
	cmd := exec.Command(o.tlrserve, "-addr", "127.0.0.1:0", "-trace="+strconv.FormatBool(trace))
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(goruntime.NumCPU()))
	cmd.SysProcAttr = childAttrs()
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start tlrserve: %w", err)
	}
	s := &server{cmd: cmd, exited: make(chan struct{})}
	live.Lock()
	live.m[s] = true
	live.Unlock()
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "http://"); !sent && i >= 0 {
				addr <- strings.Fields(line[i:])[0]
				sent = true
			}
		}
		_ = cmd.Wait()
		close(s.exited)
	}()
	select {
	case s.base = <-addr:
	case <-s.exited:
		return nil, fmt.Errorf("tlrserve exited before listening")
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, fmt.Errorf("tlrserve did not report its address")
	}
	n := goruntime.NumCPU()
	s.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     n,
		MaxIdleConnsPerHost: n,
		IdleConnTimeout:     time.Minute,
	}}
	for i := 0; ; i++ {
		resp, err := s.client.Get(s.base + "/v1/stats")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if i > 300 {
			s.stop()
			return nil, fmt.Errorf("tlrserve not ready: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// stop drains the server with SIGTERM and waits for it to exit,
// killing it if the drain hangs. It is safe to call more than once and
// from several goroutines.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	live.Lock()
	delete(live.m, s)
	live.Unlock()
}

// post sends a JSON body and decodes a 200 reply into out.
func (s *server) post(path string, body []byte, out any) error {
	resp, err := s.client.Post(s.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}

func (s *server) getJSON(path string, out any) error {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// batchWidth reads the mean of the serve.batch.width histogram from
// /metrics.
func (s *server) batchWidth() (float64, error) {
	resp, err := s.client.Get(s.base + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) >= 5 && f[0] == "serve.batch.width" && f[3] == "mean" {
			return strconv.ParseFloat(f[4], 64)
		}
	}
	return 0, fmt.Errorf("/metrics has no serve.batch.width")
}

// memStats is the part of the server's /debug/vars memstats read.
type memStats struct {
	TotalAlloc uint64
	NumGC      uint32
}

// snapshot is the server-side counter state at one instant.
type snapshot struct {
	totals map[string]uint64
	mem    memStats
}

func (s *server) snapshot() (snapshot, error) {
	var st serve.StatsResponse
	if err := s.getJSON("/v1/stats", &st); err != nil {
		return snapshot{}, err
	}
	var vars struct {
		Memstats memStats `json:"memstats"`
	}
	if err := s.getJSON("/debug/vars", &vars); err != nil {
		return snapshot{}, err
	}
	return snapshot{totals: st.Totals, mem: vars.Memstats}, nil
}

func (b snapshot) delta(a snapshot, name string) float64 {
	return float64(b.totals[name] - a.totals[name])
}

// build is one cold factorization followed by one solve against it.
type build struct {
	factorizeMS, totalMS, factorMB float64
}

// buildAndSolve factorizes a fresh problem and solves once against it,
// gating both answers. fp is the new factor's fingerprint.
func (s *server) buildAndSolve(sp serve.ProblemSpec, rhsSeed int64, t *tally) (b build, fp string, resid float64, err error) {
	start := time.Now()
	body, _ := json.Marshal(serve.FactorizeRequest{Problem: sp})
	var fr serve.FactorizeResponse
	if err = s.post("/v1/factorize", body, &fr); err != nil {
		t.fail(false, err)
		return b, "", 0, err
	}
	if fr.Cached {
		err = fmt.Errorf("factorize of geometry %d hit the cache of a fresh server", sp.Seed)
		t.fail(false, err)
		return b, "", 0, err
	}
	t.ok()
	b.factorizeMS = millis(time.Since(start))
	b.factorMB = float64(fr.Bytes) / 1e6
	resid, _, err = s.solveOnce(fr.Fingerprint, rhsSeed, sp.Tol, t)
	b.totalMS = millis(time.Since(start))
	return b, fr.Fingerprint, resid, err
}

// solveOnce sends one single-RHS solve and gates the answer. cached
// reports whether the server answered from a cached factor.
func (s *server) solveOnce(fp string, rhsSeed int64, tol float64, t *tally) (resid float64, cached bool, err error) {
	body, _ := json.Marshal(serve.SolveRequest{Fingerprint: fp, NRHS: 1, RHSSeed: rhsSeed})
	var sr serve.SolveResponse
	if err := s.post("/v1/solve", body, &sr); err != nil {
		t.fail(false, err)
		return 0, false, err
	}
	if len(sr.Residuals) != 1 || sr.Columns != 1 {
		err := fmt.Errorf("solve returned %d residuals for %d columns, want 1", len(sr.Residuals), sr.Columns)
		t.fail(true, err)
		return 0, false, err
	}
	before := t.wrong
	t.check(sr.Residuals, sr.Residuals[0], tol)
	if t.wrong > before {
		return sr.Residuals[0], sr.Cached, fmt.Errorf("solve answer failed the gate")
	}
	return sr.Residuals[0], sr.Cached, nil
}

// job is one scheduled request.
type job struct {
	due   time.Time
	phase int
	// end is the end of the job's rung: a solve of an overload rung
	// not sent by then is dropped.
	end      time.Time
	overload bool
	seed     int64 // rhs seed
}

// outcome is what one job measured.
type outcome struct {
	job
	sent, done time.Time
	late       time.Duration // generator lag: hand-off minus due
	ok         bool
	dropped    bool
	cached     bool
	resid      float64
}

// drive runs the open-loop schedule from nproc connections. A
// dispatcher hands each job to the workers at its due time; a job
// waits in the queue while every connection is busy, and its latency
// counts from the due time.
func (s *server) drive(jobs []job, fp string, tol float64, t *tally) []outcome {
	queue := make(chan int, len(jobs)) // holds every job: the dispatcher never blocks
	outs := make([]outcome, len(jobs))
	var mu sync.Mutex // guards t
	var wg sync.WaitGroup
	for w := 0; w < goruntime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local tally
			for i := range queue {
				o := &outs[i]
				o.sent = time.Now()
				if o.overload && o.sent.After(o.end) {
					o.dropped = true
					continue
				}
				var err error
				o.resid, o.cached, err = s.solveOnce(fp, o.seed, tol, &local)
				o.ok = err == nil
				o.done = time.Now()
			}
			mu.Lock()
			t.attempted += local.attempted
			t.failed += local.failed
			t.wrong += local.wrong
			for _, e := range local.errors {
				if len(t.errors) < 8 {
					t.errors = append(t.errors, e)
				}
			}
			mu.Unlock()
		}()
	}
	for i := range jobs {
		outs[i].job = jobs[i]
		if d := time.Until(jobs[i].due); d > 0 {
			time.Sleep(d)
		}
		outs[i].late = time.Since(jobs[i].due)
		queue <- i
	}
	close(queue)
	wg.Wait()
	return outs
}

// schedule lays out rung p of the ladder: solves arriving at its rate.
// The seed fixes the arrival times and the RHS of every solve.
func (sp serveSpec) schedule(p int, start time.Time, measure time.Duration, seed int64) []job {
	rng := rand.New(rand.NewSource(seed*64 + int64(p)))
	r := sp.rungs[p]
	d := time.Duration(r.share * float64(measure))
	end := start.Add(d)
	var jobs []job
	// Poisson arrivals: independent users, and no phase lock between a
	// fixed arrival period and the server's batch window.
	next := func() time.Duration { return time.Duration(rng.ExpFloat64() / r.rate * float64(time.Second)) }
	for at := next(); at < d; at += next() {
		jobs = append(jobs, job{due: start.Add(at), end: end, phase: p, overload: r.overload, seed: 1 + rng.Int63n(1<<40)})
	}
	return jobs
}

// rungStats summarizes the solves of one ladder rung.
type rungStats struct {
	// p50 (bestSliceMedian) and p99 (sliceQuantile) are solve
	// latencies from the due time; a failed solve counts as missing
	// every limit.
	p50, p99 float64
	// completedRate is the solves answered per second within the
	// rung's window: the median over its whole seconds.
	completedRate float64
	dropped       int
	// late holds the generator's hand-off lag of each job.
	late []float64
}

func summarize(outs []outcome, sp serveSpec, measure time.Duration) []rungStats {
	ps := make([]rungStats, len(sp.rungs))
	for p, r := range sp.rungs {
		var lat []float64 // in due-time order
		st := &ps[p]
		nsec := int(r.share * measure.Seconds())
		if nsec < 1 {
			nsec = 1
		}
		perSec := make([]float64, nsec)
		for _, o := range outs {
			if o.phase != p {
				continue
			}
			st.late = append(st.late, millis(o.late))
			switch {
			case o.dropped:
				st.dropped++
			case !o.ok:
				lat = append(lat, math.Inf(1))
			default:
				lat = append(lat, millis(o.done.Sub(o.due)))
				if sec := nsec - 1 - int(o.end.Sub(o.done)/time.Second); sec >= 0 && !o.done.After(o.end) {
					perSec[sec]++
				}
			}
		}
		st.p50, st.p99 = bestSliceMedian(lat), sliceQuantile(lat, 0.99)
		st.completedRate = median(perSec)
	}
	return ps
}

// runServe measures one serve workload and fills res.
func runServe(sp serveSpec, o options, res *result) error {
	if o.tlrserve == "" {
		return fmt.Errorf("--tlrserve is required for serve workloads")
	}
	t := &res.tally
	prime := serve.ProblemSpec{N: sp.n, Tile: sp.tile, Tol: sp.tol, Seed: primeGeometrySeed}

	// Set-up, repeated: start the server, wait until ready, prime the
	// factor with a cold /v1/factorize and answer one solve on it. The
	// last server stays up for the measurement.
	var setups, primeTTS, primeFact, primeMB []float64
	var srv *server
	var fp string
	worst := 0.0
	for i := 0; i < serveSetups; i++ {
		if srv != nil {
			srv.stop()
		}
		start := time.Now()
		var err error
		srv, err = startServer(o, false)
		if err != nil {
			return err
		}
		b, f, resid, err := srv.buildAndSolve(prime, o.seed, t)
		if err != nil {
			srv.stop()
			return fmt.Errorf("priming: %w", err)
		}
		setups = append(setups, secs(time.Since(start)))
		primeTTS = append(primeTTS, b.totalMS/1000)
		primeFact = append(primeFact, b.factorizeMS)
		primeMB = append(primeMB, b.factorMB)
		worst = math.Max(worst, resid)
		fp = f
	}
	defer func() { srv.stop() }()
	res.set("setup_s", median(setups))
	res.meta["fingerprint"] = fp

	before, err := srv.snapshot()
	if err != nil {
		return err
	}
	// The rungs run one after another, each drained before the next.
	// The server's per-request breakdown window is read right after the
	// latency rung, so it describes that rung's solves.
	measure := time.Duration(o.seconds) * time.Second
	var outs []outcome
	var stats serve.StatsResponse
	for p := range sp.rungs {
		jobs := sp.schedule(p, time.Now().Add(20*time.Millisecond), measure, o.seed)
		outs = append(outs, srv.drive(jobs, fp, prime.Tol, t)...)
		if p == sp.latencyRung {
			if err := srv.getJSON("/v1/stats", &stats); err != nil {
				return err
			}
		}
	}
	after, err := srv.snapshot()
	if err != nil {
		return err
	}

	sent := 0
	for _, out := range outs {
		if out.dropped {
			continue
		}
		sent++
		if out.ok && out.resid > worst {
			worst = out.resid
		}
	}
	rs := summarize(outs, sp, measure)
	// The generator's own lag, over the rungs whose latency is scored.
	var late []float64
	for p, r := range sp.rungs {
		res.meta[fmt.Sprintf("rung_%g_p99_ms", r.rate)] = rs[p].p99
		res.meta[fmt.Sprintf("rung_%g_completed_rps", r.rate)] = rs[p].completedRate
		res.meta[fmt.Sprintf("rung_%g_dropped", r.rate)] = rs[p].dropped
		if !r.overload {
			late = append(late, rs[p].late...)
		}
	}
	latep99 := quantile(late, 0.99)
	res.meta["loadgen_late_p99_ms"] = latep99
	if latep90 := quantile(late, 0.9); latep90 > maxLateMS {
		return invalidRun{fmt.Sprintf("load generator lagged: p90 hand-off %.2f ms after due time (limit %d ms)", latep90, maxLateMS)}
	}
	lr := rs[sp.latencyRung]

	res.set("residual_rel", worst)
	res.set("solve_p50_ms", lr.p50)
	res.set("solve_p99_ms", lr.p99)
	// The last rung is the overload rung.
	res.set("sat_rate_rps", rs[len(rs)-1].completedRate)
	res.set("ok_frac", t.okFrac())
	res.set("time_to_solution_s", median(primeTTS))
	res.set("factorize_p50_ms", median(primeFact))
	res.set("factor_mb", median(primeMB))

	if !o.trace {
		return nil
	}
	// The always-on per-request breakdown of the requests at the p50
	// and p99 end-to-end ranks of the server's recent window (the last
	// rung's solves).
	for _, q := range []struct {
		name string
		bd   serve.BreakdownMS
	}{{"p50", stats.Request.P50}, {"p99", stats.Request.P99}} {
		res.set("serve.queue_ms."+q.name, q.bd.QueueMS)
		res.set("serve.batch_wait_ms."+q.name, q.bd.BatchWaitMS)
		res.set("serve.subst_ms."+q.name, q.bd.SubstMS)
		res.set("serve.resid_ms."+q.name, q.bd.ResidMS)
		res.set("serve.factor_ms."+q.name, q.bd.FactorMS)
	}
	if w, err := srv.batchWidth(); err == nil {
		res.set("serve.batch_width", w)
	}
	// A solve by fingerprint bypasses the cache's hit counter, so hits
	// are the solve replies that say cached; misses are the server's.
	hits, misses := 0.0, after.delta(before, "serve.cache.misses")
	for _, out := range outs {
		if out.cached {
			hits++
		}
	}
	if hits+misses > 0 {
		res.set("serve.cache.hit_ratio", hits/(hits+misses))
	}
	res.set("serve.cache.misses", misses)
	res.set("serve.factorize.runs", after.delta(before, "serve.factorize.runs"))
	res.set("serve.admission.rejected", after.delta(before, "serve.admission.rejected"))
	res.set("solve.run.planned", after.delta(before, "solve.run.planned"))
	res.set("solve.run.sequential", after.delta(before, "solve.run.sequential"))
	for i, name := range []string{"ladder.low_p99_ms", "ladder.mid_p99_ms", "ladder.high_p99_ms"} {
		res.set(name, rs[i].p99)
	}
	res.set("proc.alloc_mb", float64(after.mem.TotalAlloc-before.mem.TotalAlloc)/1e6/float64(sent))
	res.set("proc.gc_cycles", float64(after.mem.NumGC-before.mem.NumGC))
	res.set("loadgen.late_p99_ms", latep99)
	res.set("loadgen.sent", float64(sent))
	res.set("loadgen.conns", float64(goruntime.NumCPU()))

	// Tracing overhead: a second, default-traced server runs the middle
	// rung for a few seconds; its solve p50 against the untraced one.
	srv.stop()
	traced, err := startServer(o, true)
	if err != nil {
		return err
	}
	srv = traced
	_, tfp, _, err := traced.buildAndSolve(prime, o.seed, t)
	if err != nil {
		return fmt.Errorf("priming traced server: %w", err)
	}
	one := serveSpec{rungs: []rung{{rate: sp.rungs[sp.latencyRung].rate, share: 1}}}
	const tracedRun = 4 * time.Second
	touts := traced.drive(one.schedule(0, time.Now().Add(20*time.Millisecond), tracedRun, o.seed+1), tfp, prime.Tol, t)
	res.set("serve.trace_overhead_share", summarize(touts, one, tracedRun)[0].p50/lr.p50-1)
	return nil
}
