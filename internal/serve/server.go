// Package serve turns the TLR Cholesky library into a long-running
// solve service. The economics come from the paper's workload shape:
// factorization costs O(n²·k) and is worth minutes; a solve against a
// cached factor costs O(n·k·nrhs) and is worth milliseconds. The
// server therefore (1) caches factors by problem fingerprint with
// single-flight deduplication and LRU eviction under a byte budget,
// (2) coalesces concurrent solves against the same factor into one
// blocked multi-column substitution, and (3) applies admission
// control so overload degrades into fast 429s instead of queue
// collapse. Fleet mode (see fleet.go) stacks N of these Servers as
// shards behind a fingerprint-routing front end.
package serve

import (
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"context"

	"tlrchol/internal/core"
	"tlrchol/internal/dense"
	"tlrchol/internal/obs"
	"tlrchol/internal/rbf"
	"tlrchol/internal/tilemat"
	"tlrchol/internal/tlr"
)

// Config tunes the service. The zero value is usable: every field has
// a production-shaped default applied by New.
type Config struct {
	// CacheBudget bounds factor-cache memory in bytes (default 1 GiB).
	CacheBudget int64
	// BatchWindow is how long the first solve of a batch waits for
	// company (default 2ms; negative disables batching).
	BatchWindow time.Duration
	// MaxBatchCols caps columns per blocked solve (default 64).
	MaxBatchCols int
	// MaxInflight bounds concurrently admitted requests (default 64).
	MaxInflight int
	// MaxN rejects absurd problem sizes up front (default 16384).
	MaxN int
	// FactorizeTimeout bounds one factorization (default 5 minutes).
	FactorizeTimeout time.Duration
	// SolveTimeout bounds one batched solve (default 1 minute).
	SolveTimeout time.Duration
	// Workers is the factorization worker count (0 = GOMAXPROCS).
	Workers int
	// SolveWorkers is the worker count for planned parallel
	// substitutions (0 = GOMAXPROCS; the executor further clamps to the
	// plan's widest level set).
	SolveWorkers int
	// Metrics selects the registry (nil = obs.Default).
	Metrics *obs.Registry
	// DisableTracing turns off per-request span detail. Requests still
	// get trace ids and the always-on latency breakdown; what goes away
	// is the span ring (and with it the per-task solve-plan spans), so
	// the warm solve path runs with zero tracing work.
	DisableTracing bool
	// TraceSpanCap sizes each detailed request's span ring (default
	// 4096; overflow is counted, not recorded).
	TraceSpanCap int
	// FlightSlow / FlightRecent / FlightErrors size the flight
	// recorder's retention policies (0 = defaults 32 / 128 / 64).
	FlightSlow   int
	FlightRecent int
	FlightErrors int
	// AccessLog, when non-nil, receives one structured JSON line per
	// completed request. Lines are written whole under a server mutex,
	// so any io.Writer is safe.
	AccessLog io.Writer
}

func (c *Config) defaults() {
	if c.CacheBudget == 0 {
		c.CacheBudget = 1 << 30
	}
	if c.BatchWindow == 0 {
		c.BatchWindow = 2 * time.Millisecond
	}
	if c.MaxBatchCols <= 0 {
		c.MaxBatchCols = 64
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 64
	}
	if c.MaxN <= 0 {
		c.MaxN = 16384
	}
	if c.FactorizeTimeout <= 0 {
		c.FactorizeTimeout = 5 * time.Minute
	}
	if c.SolveTimeout <= 0 {
		c.SolveTimeout = time.Minute
	}
	if c.Metrics == nil {
		c.Metrics = obs.Default
	}
	if c.TraceSpanCap <= 0 {
		c.TraceSpanCap = 4096
	}
}

// Server is the HTTP solve service — standalone, or one shard of a
// Fleet. Create with New, mount Handler on an http.Server, and drain
// with http.Server.Shutdown — in-flight requests (including batch
// leaders mid-window) run to completion. In fleet mode the Fleet calls
// the do* entry points directly (in-process; no HTTP hop between
// router and shard) and the shard's own mux goes unused.
type Server struct {
	cfg     Config
	reg     *obs.Registry
	cache   *FactorCache
	batcher *Batcher
	adm     *Admission
	mux     *http.ServeMux
	started time.Time

	// id is the shard index in fleet mode, -1 standalone. It labels
	// shard spans and capacity errors.
	id int
	// replicas holds factors this server serves as a non-owner replica
	// (always present; empty outside fleet mode).
	replicas *replicaStore

	factorRuns, factorReqs, solveReqs, httpErrors *obs.Counter
	factorLatency, solveLatency, substLatency     *obs.Histogram
	// solveOnly tracks recent substitution-only latencies for the
	// /v1/stats percentile report and the Retry-After estimator.
	solveOnly *window[float64]

	// tr is the request-tracing front end (trace ids, flight retention,
	// end-to-end breakdown ring, access log). In fleet mode the Fleet
	// runs its own tracer and the shard's stays idle.
	tr *tracer

	statsMu  sync.Mutex
	lastSnap obs.MetricsSnapshot
}

// New builds a Server from cfg (zero value is fine).
func New(cfg Config) *Server {
	cfg.defaults()
	reg := cfg.Metrics
	s := &Server{
		cfg:           cfg,
		reg:           reg,
		cache:         NewFactorCache(cfg.CacheBudget, reg),
		batcher:       NewBatcher(cfg.BatchWindow, cfg.MaxBatchCols, cfg.SolveTimeout, cfg.SolveWorkers, reg),
		adm:           NewAdmission(cfg.MaxInflight, reg),
		mux:           http.NewServeMux(),
		started:       time.Now(),
		id:            -1,
		replicas:      newReplicaStore(reg),
		factorRuns:    reg.Counter("serve.factorize.runs"),
		factorReqs:    reg.Counter("serve.factorize.requests"),
		solveReqs:     reg.Counter("serve.solve.requests"),
		httpErrors:    reg.Counter("serve.http.errors"),
		factorLatency: reg.Histogram("serve.factorize.latency_ms", 10, 100, 1000, 10000, 60000),
		solveLatency:  reg.Histogram("serve.solve.latency_ms", 1, 5, 10, 50, 100, 1000, 10000),
		substLatency:  reg.Histogram("serve.solve.subst_ms", 1, 5, 10, 50, 100, 1000, 10000),
		solveOnly:     newWindow[float64](),
	}
	s.tr = newTracer(&cfg, s.httpErrors)
	s.mux.HandleFunc("POST /v1/factorize", s.tr.traced("/v1/factorize", true, s.handleFactorize))
	s.mux.HandleFunc("POST /v1/solve", s.tr.traced("/v1/solve", true, s.handleSolve))
	s.mux.HandleFunc("GET /v1/trace/{id}", s.tr.handleTrace)
	s.mux.HandleFunc("GET /v1/stats", s.tr.traced("/v1/stats", false, s.handleStats))
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.Handle("GET /debug/vars", expvar.Handler())
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// errorBody is the uniform error envelope.
type errorBody struct {
	Error string `json:"error"`
}

// apiError carries an HTTP status (plus an optional Retry-After hint)
// across the shard/router boundary, so the fleet can distinguish "this
// shard is full, try a replica" from a terminal failure.
type apiError struct {
	code       int
	retryAfter int // seconds; > 0 emits a Retry-After header
	msg        string
}

func (e *apiError) Error() string { return e.msg }

func apiErrorf(code int, format string, args ...any) *apiError {
	return &apiError{code: code, msg: fmt.Sprintf(format, args...)}
}

func (s *Server) fail(w http.ResponseWriter, code int, format string, args ...any) {
	failJSON(w, s.httpErrors, code, format, args...)
}

// failAPI writes an apiError, propagating its Retry-After hint.
func (s *Server) failAPI(w http.ResponseWriter, e *apiError) {
	if e.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(e.retryAfter))
	}
	s.fail(w, e.code, "%s", e.msg)
}

// retryAfterEstimate predicts, in whole seconds, when an admission
// slot should free: the recent median substitution latency times the
// current queue depth. A cold server (no latency history) assumes a
// 25ms solve. Clamped to [1, 30] — the hint steers client backoff, it
// is not a promise. The estimate is deterministic so the fleet router
// can compare shards by it; the client-facing header adds jitter on
// top (retryAfterSeconds) to decorrelate retry storms.
func (s *Server) retryAfterEstimate() int {
	st := solveLatencyStats(s.solveOnly)
	p50 := st.P50MS
	if st.Count == 0 || p50 <= 0 {
		p50 = 25
	}
	inflight := float64(s.adm.inflight.Load())
	if inflight < 1 {
		inflight = 1
	}
	secs := int(math.Ceil(p50 * inflight / 1000))
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return secs
}

// retryAfterSeconds is the client-facing hint: the estimate ±25%
// jitter, still clamped to ≥ 1.
func (s *Server) retryAfterSeconds() int {
	est := s.retryAfterEstimate()
	if j := est / 4; j > 0 {
		est += rand.Intn(2*j+1) - j
	}
	if est < 1 {
		est = 1
	}
	return est
}

// overloaded builds the 429 apiError for a full admission gate.
func (s *Server) overloaded() *apiError {
	who := "server"
	if s.id >= 0 {
		who = fmt.Sprintf("shard %d", s.id)
	}
	return &apiError{
		code:       http.StatusTooManyRequests,
		retryAfter: s.retryAfterSeconds(),
		msg:        fmt.Sprintf("%s at capacity (%d inflight); retry after backoff", who, s.cfg.MaxInflight),
	}
}

// reject emits the 429 backpressure response with the computed retry
// hint.
func (s *Server) reject(w http.ResponseWriter) {
	s.failAPI(w, s.overloaded())
}

func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, 64<<20)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		s.fail(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

// FactorizeRequest is the /v1/factorize body: just a problem spec.
type FactorizeRequest struct {
	Problem ProblemSpec `json:"problem"`
}

// FactorizeResponse reports the cached or freshly built factor.
type FactorizeResponse struct {
	Fingerprint string      `json:"fingerprint"`
	Cached      bool        `json:"cached"`
	N           int         `json:"n"`
	Tile        int         `json:"tile"`
	Bytes       int64       `json:"bytes"`
	Stats       FactorStats `json:"stats"`
	// Shard names the fleet shard that did the work (absent standalone).
	Shard *int `json:"shard,omitempty"`
}

func (s *Server) handleFactorize(w http.ResponseWriter, r *http.Request) {
	s.factorReqs.Add(0, 1)
	// Admission before decode: overload rejects without paying for a
	// JSON parse.
	if !s.adm.TryAcquire() {
		s.reject(w)
		return
	}
	defer s.adm.Release()
	var req FactorizeRequest
	if !s.decode(w, r, &req) {
		return
	}
	resp, aerr := s.doFactorizeAdmitted(r.Context(), &req, "")
	if aerr != nil {
		s.failAPI(w, aerr)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// doFactorize is the fleet entry point: admission plus the admitted
// path, with the shard's work recorded as a span on the router's
// trace. fpHint carries the fingerprint the router already computed.
func (s *Server) doFactorize(ctx context.Context, req *FactorizeRequest, fpHint string) (*FactorizeResponse, *apiError) {
	rt := obs.TraceFrom(ctx)
	start := rt.Now()
	s.factorReqs.Add(0, 1)
	if !s.adm.TryAcquire() {
		return nil, s.overloaded()
	}
	defer s.adm.Release()
	resp, aerr := s.doFactorizeAdmitted(ctx, req, fpHint)
	rt.Span("shard.factorize", int32(s.id), start, rt.Now()-start, obs.SpanInfo{}, false)
	return resp, aerr
}

// doFactorizeAdmitted resolves the factor once admission is held.
func (s *Server) doFactorizeAdmitted(ctx context.Context, req *FactorizeRequest, fpHint string) (*FactorizeResponse, *apiError) {
	rt := obs.TraceFrom(ctx)
	rt.Phase("queue", 0, rt.Now())
	resolveStart := rt.Now()
	f, cached, err := s.resolveFactor(ctx, req.Problem, fpHint)
	rt.Phase("factor", resolveStart, rt.Now()-resolveStart)
	if err != nil {
		return nil, factorAPIError(err)
	}
	defer f.Release()
	rt.Tag("fp", fpPrefix(f.FP))
	rt.Tag("cache", hitMiss(cached))
	return &FactorizeResponse{
		Fingerprint: f.FP,
		Cached:      cached,
		N:           f.Spec.N,
		Tile:        f.Spec.Tile,
		Bytes:       f.SizeBytes,
		Stats:       f.FactorStats,
	}, nil
}

// fpPrefix shortens a fingerprint for tags and log lines: enough to
// correlate, short enough to scan.
func fpPrefix(fp string) string {
	if len(fp) > 12 {
		return fp[:12]
	}
	return fp
}

func hitMiss(cached bool) string {
	if cached {
		return "hit"
	}
	return "miss"
}

// factorAPIError maps resolution errors onto HTTP codes.
func factorAPIError(err error) *apiError {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return apiErrorf(http.StatusGatewayTimeout, "factorization did not complete: %v", err)
	}
	return apiErrorf(http.StatusBadRequest, "%v", err)
}

// resolveFactor normalizes the spec, fingerprints it and gets-or-builds
// the factor through the single-flight cache. fpHint, when non-empty,
// is the fingerprint the fleet router already computed for this spec —
// it skips regenerating the geometry on the hot (cache-hit) path.
// Replicated factors are checked first: a replica holder serves solves
// locally without touching its own cache. The returned factor is
// pinned for the caller (Release when the solve is done).
func (s *Server) resolveFactor(ctx context.Context, sp ProblemSpec, fpHint string) (*Factor, bool, error) {
	if err := sp.normalize(s.cfg.MaxN); err != nil {
		return nil, false, err
	}
	fp := fpHint
	var pts []rbf.Point
	if fp == "" {
		pts = sp.points()
		if err := validatePoints(pts); err != nil {
			return nil, false, err
		}
		fp = Fingerprint(sp, pts)
	}
	if f, ok := s.replicas.lookup(fp); ok {
		return f, true, nil
	}
	// The requester that wins the single-flight donates its trace to
	// the build: its /v1/trace shows compress/factorize/plan spans.
	// Waiters see the build only as their "factor" phase duration.
	rt := obs.TraceFrom(ctx)
	return s.cache.Get(ctx, fp, func() (*Factor, error) {
		if pts == nil {
			pts = sp.points()
			if err := validatePoints(pts); err != nil {
				return nil, err
			}
		}
		return s.buildFactor(rt, sp, pts, fp)
	})
}

// lookupLocal returns a pinned factor this server can solve against
// without building: its own cache, or its replica store.
func (s *Server) lookupLocal(fp string) (*Factor, bool) {
	if f, ok := s.cache.Lookup(fp); ok {
		return f, true
	}
	return s.replicas.lookup(fp)
}

// buildFactor assembles, compresses and factorizes the problem. It
// runs under the server's factorization budget, detached from any one
// request context: a single-flight build may be serving many waiters,
// so the first requester hanging up must not kill it for the rest.
func (s *Server) buildFactor(rt *obs.ReqTrace, sp ProblemSpec, pts []rbf.Point, fp string) (*Factor, error) {
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.FactorizeTimeout)
	defer cancel()
	// The build runs detached from the request's cancellation but keeps
	// its trace: core.Factorize records analyze/run spans against it.
	ctx = obs.ContextWithTrace(ctx, rt)
	s.factorRuns.Add(0, 1)
	start := time.Now()

	compressStart := rt.Now()
	prob, _ := sp.problem(pts)
	comp, err := tlr.CompressorFor(sp.Compress, sp.AraBS, uint64(sp.Seed))
	if err != nil {
		return nil, err
	}
	asm := tilemat.Assembler(prob.Block)
	if sp.Augmented {
		asm = prob.AugmentedBlock
	}
	m, _, err := tilemat.FromAssemblerParallelComp(sp.Dim(), sp.Tile, asm, sp.Tol, sp.MaxRank, s.cfg.Workers, comp)
	if err != nil {
		return nil, fmt.Errorf("compression failed: %w", err)
	}
	compress := time.Since(start)
	rt.Span("factor.compress", -1, compressStart, rt.Now()-compressStart, obs.SpanInfo{}, false)
	op := m.Clone()

	opts := core.Options{
		Tol:     sp.Tol,
		MaxRank: sp.MaxRank,
		Trim:    *sp.Trim,
		Workers: s.cfg.Workers,
		Context: ctx,
		Metrics: s.reg,
	}
	var rep core.Report
	if sp.Factor == "ldlt" {
		rep, err = core.FactorizeLDLt(m, opts)
	} else {
		rep, err = core.Factorize(m, opts)
	}
	if err != nil {
		return nil, fmt.Errorf("factorization failed: %w", err)
	}
	// Build the substitution schedule alongside the factor, still under
	// the single-flight: every solve against this entry reuses it, and
	// its bytes ride the same cache budget (evicted together).
	planStart := time.Now()
	planSpanStart := rt.Now()
	plan := core.BuildSolvePlan(m)
	planBuild := time.Since(planStart)
	rt.Span("factor.plan", -1, planSpanStart, rt.Now()-planSpanStart, obs.SpanInfo{}, false)
	fwdLevels, _ := plan.Levels()

	elapsed := time.Since(start)
	s.factorLatency.Observe(0, float64(elapsed.Milliseconds()))
	st := m.Stats()
	return &Factor{
		FP:        fp,
		Spec:      sp,
		L:         m,
		Op:        op,
		Plan:      plan,
		SizeBytes: int64(m.Bytes()+op.Bytes()) + plan.Bytes(),
		FactorStats: FactorStats{
			ElapsedMS:     float64(elapsed.Milliseconds()),
			CompressMS:    float64(compress.Milliseconds()),
			Density:       st.Density,
			MaxRank:       st.Max,
			TasksTrimmed:  rep.TasksTrimmed,
			TasksExecuted: rep.TasksExecuted,
			PlanBuildMS:   float64(planBuild) / float64(time.Millisecond),
			PlanLevels:    fwdLevels,
			PlanMaxWidth:  plan.MaxWidth(),
		},
	}, nil
}

// SolveRequest is the /v1/solve body. The factor is named either by a
// full problem spec (built on miss) or by a fingerprint from a prior
// factorize (404 on miss). Right-hand sides come as explicit columns
// or as a server-generated seeded random block.
type SolveRequest struct {
	Problem     *ProblemSpec `json:"problem,omitempty"`
	Fingerprint string       `json:"fingerprint,omitempty"`
	// RHS holds explicit right-hand-side columns, each of length n.
	RHS [][]float64 `json:"rhs,omitempty"`
	// NRHS with RHSSeed asks the server to generate random columns.
	NRHS    int   `json:"nrhs,omitempty"`
	RHSSeed int64 `json:"rhs_seed,omitempty"`
	// Refine runs iterative refinement to Target (default tol/10,
	// capped at MaxIter sweeps, default 20).
	Refine  bool    `json:"refine,omitempty"`
	MaxIter int     `json:"maxiter,omitempty"`
	Target  float64 `json:"target,omitempty"`
	// ReturnSolution includes the solution columns in the response.
	ReturnSolution bool `json:"return_solution,omitempty"`
}

// SolveResponse reports per-column results plus batching evidence.
type SolveResponse struct {
	Fingerprint string  `json:"fingerprint"`
	Cached      bool    `json:"cached"`
	Columns     int     `json:"columns"`
	BatchCols   int     `json:"batch_columns"`
	WaitMS      float64 `json:"wait_ms"`
	SolveMS     float64 `json:"solve_ms"`
	// SubstMS is the time inside the triangular substitution alone —
	// no batching wait, no residual evaluation.
	SubstMS    float64     `json:"subst_ms"`
	Residuals  []float64   `json:"residuals"`
	Iterations []int       `json:"iterations,omitempty"`
	Solution   [][]float64 `json:"solution,omitempty"`
	// TraceID names this request's trace (also in the X-Trace-Id
	// header); LeaderTrace names the batch leader's trace, which holds
	// the per-task execution spans when this request rode a shared
	// batch (equal to TraceID when this request led).
	TraceID     string `json:"trace_id,omitempty"`
	LeaderTrace string `json:"leader_trace,omitempty"`
	// Shard names the fleet shard that served the solve (absent
	// standalone); Replica reports whether it served from a replicated
	// copy rather than its own cache.
	Shard   *int `json:"shard,omitempty"`
	Replica bool `json:"replica,omitempty"`
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	s.solveReqs.Add(0, 1)
	if !s.adm.TryAcquire() {
		s.reject(w)
		return
	}
	defer s.adm.Release()
	var req SolveRequest
	if !s.decode(w, r, &req) {
		return
	}
	resp, aerr := s.doSolveAdmitted(r.Context(), &req, "")
	if aerr != nil {
		s.failAPI(w, aerr)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// doSolve is the fleet entry point: admission plus the admitted path,
// with the shard's work recorded as a span on the router's trace.
func (s *Server) doSolve(ctx context.Context, req *SolveRequest, fpHint string) (*SolveResponse, *apiError) {
	rt := obs.TraceFrom(ctx)
	start := rt.Now()
	s.solveReqs.Add(0, 1)
	if !s.adm.TryAcquire() {
		return nil, s.overloaded()
	}
	defer s.adm.Release()
	resp, aerr := s.doSolveAdmitted(ctx, req, fpHint)
	rt.Span("shard.solve", int32(s.id), start, rt.Now()-start, obs.SpanInfo{}, false)
	return resp, aerr
}

// doSolveAdmitted runs one solve with an admission slot already held.
// The factor stays pinned from acquisition to the end of response
// assembly, so concurrent eviction can drop it from the cache but
// never free it mid-substitution.
func (s *Server) doSolveAdmitted(ctx context.Context, req *SolveRequest, fpHint string) (resp *SolveResponse, aerr *apiError) {
	reqStart := time.Now()
	rt := obs.TraceFrom(ctx)

	// Validate the cheap parts (spec, RHS shape) before paying for any
	// factorization the request might trigger.
	var (
		f      *Factor
		cached bool
		n      int
	)
	defer func() {
		if f != nil {
			f.Release()
		}
	}()
	switch {
	case req.Problem != nil:
		if err := req.Problem.normalize(s.cfg.MaxN); err != nil {
			return nil, apiErrorf(http.StatusBadRequest, "%v", err)
		}
		n = req.Problem.N
	case req.Fingerprint != "":
		var ok bool
		f, ok = s.lookupLocal(req.Fingerprint)
		if !ok {
			return nil, apiErrorf(http.StatusNotFound, "no cached factor for fingerprint %q; send a problem spec", req.Fingerprint)
		}
		cached = true
		n = f.Spec.N
	default:
		return nil, apiErrorf(http.StatusBadRequest, "request must carry a problem spec or a fingerprint")
	}
	cols, err := buildRHS(req, n, s.cfg.MaxBatchCols)
	if err != nil {
		return nil, apiErrorf(http.StatusBadRequest, "%v", err)
	}
	// Queue covers everything up to factor resolution: admission,
	// decode, validation, RHS materialization.
	rt.Phase("queue", 0, rt.Now())
	resolveStart := rt.Now()
	if f == nil {
		f, cached, err = s.resolveFactor(ctx, *req.Problem, fpHint)
		if err != nil {
			return nil, factorAPIError(err)
		}
	}
	rt.Phase("factor", resolveStart, rt.Now()-resolveStart)
	rt.Tag("fp", fpPrefix(f.FP))
	rt.Tag("cache", hitMiss(cached))
	if d := f.Spec.Dim(); d != cols.Rows {
		// Augmented factor: the request's columns carry the N data rows;
		// the 4 polynomial constraint rows of the saddle-point system are
		// identically zero. Pad here so the whole solve pipeline sees the
		// factor's dimension (the response assembly below reads only the
		// first N rows back, which drops the padding again).
		padded := dense.NewMatrix(d, cols.Cols)
		for i := 0; i < cols.Rows; i++ {
			copy(padded.Row(i), cols.Row(i))
		}
		cols = padded
	}
	p := SolveParams{Refine: req.Refine, MaxIter: req.MaxIter, Target: req.Target}
	if p.Refine {
		if p.MaxIter <= 0 {
			p.MaxIter = 20
		}
		if p.Target <= 0 {
			p.Target = f.Spec.Tol / 10
		}
	} else {
		p.MaxIter, p.Target = 0, 0
	}

	sctx, cancel := context.WithTimeout(ctx, s.cfg.SolveTimeout)
	defer cancel()
	submitAt := rt.Now()
	out := s.batcher.Solve(sctx, f, p, cols)
	if out.err != nil {
		code := http.StatusInternalServerError
		if errors.Is(out.err, context.Canceled) || errors.Is(out.err, context.DeadlineExceeded) {
			code = http.StatusGatewayTimeout
		}
		return nil, apiErrorf(code, "%v", out.err)
	}
	s.solveLatency.Observe(0, float64(time.Since(reqStart).Milliseconds()))
	substMS := float64(out.subst) / float64(time.Millisecond)
	s.substLatency.Observe(0, substMS)
	s.solveOnly.Record(substMS)

	// Breakdown phases partition submit→completion: the batch wait, the
	// pure substitution, and the rest of the solve (residual check in
	// direct mode, operator applies and convergence logic under
	// refinement). Together with queue and factor above they account
	// for the request's full timeline.
	rt.Phase("batch_wait", submitAt, out.waited)
	rt.Phase("subst", submitAt+out.waited, out.subst)
	solveRest := out.solved - out.subst
	if req.Refine {
		rt.Phase("refine", submitAt+out.waited+out.subst, solveRest)
	} else {
		rt.Phase("resid", submitAt+out.waited+out.subst, solveRest)
	}
	rt.Tag("batch", strconv.Itoa(out.batchCols))

	resp = &SolveResponse{
		Fingerprint: f.FP,
		Cached:      cached,
		Columns:     cols.Cols,
		BatchCols:   out.batchCols,
		WaitMS:      float64(out.waited) / float64(time.Millisecond),
		SolveMS:     float64(out.solved) / float64(time.Millisecond),
		SubstMS:     substMS,
		Residuals:   out.residuals,
		Iterations:  out.iterations,
		LeaderTrace: out.leader,
	}
	if rt != nil {
		resp.TraceID = rt.ID
	}
	if req.ReturnSolution {
		resp.Solution = make([][]float64, cols.Cols)
		for j := 0; j < cols.Cols; j++ {
			col := make([]float64, f.Spec.N)
			for i := range col {
				col[i] = cols.At(i, j)
			}
			resp.Solution[j] = col
		}
	}
	return resp, nil
}

// buildRHS materializes the request's right-hand sides as an n×k
// matrix.
func buildRHS(req *SolveRequest, n, maxCols int) (*dense.Matrix, error) {
	if len(req.RHS) > 0 {
		if len(req.RHS) > maxCols {
			return nil, fmt.Errorf("%d RHS columns exceed the per-request limit %d", len(req.RHS), maxCols)
		}
		m := dense.NewMatrix(n, len(req.RHS))
		for j, col := range req.RHS {
			if len(col) != n {
				return nil, fmt.Errorf("rhs column %d has %d entries, want n=%d", j, len(col), n)
			}
			for i, v := range col {
				m.Set(i, j, v)
			}
		}
		return m, nil
	}
	if req.NRHS <= 0 {
		return nil, fmt.Errorf("request must carry rhs columns or nrhs > 0")
	}
	if req.NRHS > maxCols {
		return nil, fmt.Errorf("nrhs=%d exceeds the per-request limit %d", req.NRHS, maxCols)
	}
	seed := req.RHSSeed
	if seed == 0 {
		seed = 1
	}
	return dense.Random(rand.New(rand.NewSource(seed)), n, req.NRHS), nil
}

// StatsResponse is the /v1/stats body: occupancy plus both lifetime
// totals and the delta window since the previous stats scrape —
// Snapshot/Delta semantics built for exactly this long-lived process.
type StatsResponse struct {
	UptimeSec float64        `json:"uptime_sec"`
	Cache     CacheStats     `json:"cache"`
	Admission AdmissionStats `json:"admission"`
	// Replica reports the factors this server holds as a fleet replica
	// (zero-valued standalone).
	Replica   ReplicaStats      `json:"replica"`
	SolveOnly SolveLatencyStats `json:"solve_only"`
	// Request covers end-to-end /v1/solve latency (queueing, batching
	// and response overhead included) with a per-percentile breakdown;
	// SolveOnly above remains the substitution-only series.
	Request RequestLatencyStats `json:"request"`
	// Flight summarizes the trace recorder: how many traces are
	// retained and which retained request was slowest.
	Flight obs.FlightStats   `json:"flight"`
	Totals map[string]uint64 `json:"totals"`
	Window map[string]uint64 `json:"window"`
}

// statsBody assembles the stats response (shared with fleet per-shard
// reporting).
func (s *Server) statsBody() StatsResponse {
	snap := s.reg.Snapshot()
	s.statsMu.Lock()
	delta := snap.Delta(s.lastSnap)
	s.lastSnap = snap
	s.statsMu.Unlock()

	counterMap := func(ms obs.MetricsSnapshot) map[string]uint64 {
		out := make(map[string]uint64, len(ms.Counters))
		for _, c := range ms.Counters {
			out[c.Name] = c.Value
		}
		return out
	}
	return StatsResponse{
		UptimeSec: time.Since(s.started).Seconds(),
		Cache:     s.cache.Stats(),
		Admission: s.adm.Stats(),
		Replica:   s.replicas.stats(),
		SolveOnly: solveLatencyStats(s.solveOnly),
		Request:   requestLatencyStats(s.tr.reqLatency),
		Flight:    s.tr.flight.Stats(),
		Totals:    counterMap(snap),
		Window:    counterMap(delta),
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.statsBody())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, s.reg.Snapshot().String())
	fmt.Fprintf(w, "  %-28s %s\n", "serve.uptime", time.Since(s.started).Round(time.Second))
	fmt.Fprintf(w, "  %-28s %s\n", "serve.inflight", strconv.FormatInt(s.adm.inflight.Load(), 10))
}
