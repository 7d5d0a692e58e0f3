// Package serve turns the TLR Cholesky library into a long-running
// solve service. The economics come from the paper's workload shape:
// factorization costs O(n²·k) and is worth minutes; a solve against a
// cached factor costs O(n·k·nrhs) and is worth milliseconds. The
// service therefore (1) caches factors by problem fingerprint with
// single-flight deduplication and LRU eviction under a byte budget,
// (2) coalesces concurrent solves against the same factor into one
// blocked multi-column substitution, and (3) applies admission
// control so overload degrades into fast 429s instead of queue
// collapse. One HTTP front end (Server) routes every request by
// fingerprint to one of 1..N in-process shards (shard.go), each a
// complete cache + batcher + admission engine; hot factors replicate
// across shards (replicate.go).
package serve

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"tlrchol/internal/obs"
	"tlrchol/internal/rbf"
)

// Config tunes the service. The zero value is usable: every field has
// a production-shaped default applied by New.
type Config struct {
	// Shards is the number of solve shards behind the router
	// (default 1).
	Shards int
	// Replicas is how many extra shards a hot factor is copied to
	// (0 or negative: none; clamped to Shards-1).
	Replicas int
	// PromoteAfter is the solve count within PromoteWindow that marks a
	// fingerprint hot (default 8).
	PromoteAfter int
	// PromoteWindow is the popularity decay window (default 10s).
	PromoteWindow time.Duration
	// CacheBudget bounds each shard's factor-cache memory in bytes
	// (default 1 GiB).
	CacheBudget int64
	// BatchWindow is how long the first solve of a batch waits for
	// company (default 2ms; negative disables batching).
	BatchWindow time.Duration
	// MaxBatchCols caps columns per blocked solve (default 64).
	MaxBatchCols int
	// MaxInflight bounds concurrently admitted requests per shard
	// (default 64).
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
	// Metrics selects the front end's registry (nil = obs.Default).
	// Each shard records into a registry of its own; /metrics and
	// /v1/stats sum them by name with this one.
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
	if c.Shards <= 0 {
		c.Shards = 1
	}
	c.Replicas = max(0, min(c.Replicas, c.Shards-1))
	if c.PromoteAfter <= 0 {
		c.PromoteAfter = 8
	}
	if c.PromoteWindow <= 0 {
		c.PromoteWindow = 10 * time.Second
	}
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

// Server is the HTTP solve service: one front end over cfg.Shards
// in-process shards. It decodes each request, consistent-hashes the
// problem fingerprint to an owner shard (rendezvous order, router.go)
// and calls that shard directly — no network hop. So:
//
//   - every factorization for a fingerprint lands on one shard, whose
//     single-flight collapses concurrent builds — exactly one
//     factorization server-wide per fingerprint;
//   - cache capacity partitions instead of duplicating: S shards hold
//     S distinct working sets;
//   - hot fingerprints replicate to extra shards (replicate.go), and
//     the router spreads their solves across the copies by load;
//   - draining a shard re-routes only the keys it owned, and a
//     saturated owner's 429 degrades into a retry on a replica before
//     the client ever sees it.
//
// One trace id covers the whole request: the router records a
// router.route span, the shard a shard.solve / shard.factorize span.
// Create with New, mount Handler on an http.Server, and drain with
// http.Server.Shutdown — in-flight requests (including batch leaders
// mid-window) run to completion.
type Server struct {
	cfg     Config
	reg     *obs.Registry
	shards  []*shard
	repl    *replicator
	tr      *tracer
	mux     *http.ServeMux
	started time.Time
	// solveOnly tracks recent substitution-only latencies across all
	// shards for the /v1/stats percentile report and the Retry-After
	// estimator.
	solveOnly *window[float64]

	httpErrors     *obs.Counter
	routeRequests  *obs.Counter
	routeFallbacks *obs.Counter
	routeRejected  *obs.Counter
	replicaServes  *obs.Counter

	statsMu  sync.Mutex
	lastSnap obs.MetricsSnapshot
}

// New builds a Server from cfg (zero value is fine): the shards, the
// replicator and the routing front end.
func New(cfg Config) *Server {
	cfg.defaults()
	reg := cfg.Metrics
	s := &Server{
		cfg:            cfg,
		reg:            reg,
		shards:         make([]*shard, cfg.Shards),
		mux:            http.NewServeMux(),
		started:        time.Now(),
		solveOnly:      newWindow[float64](),
		httpErrors:     reg.Counter("serve.http.errors"),
		routeRequests:  reg.Counter("serve.route.requests"),
		routeFallbacks: reg.Counter("serve.route.fallbacks"),
		routeRejected:  reg.Counter("serve.route.rejected"),
		replicaServes:  reg.Counter("serve.route.replica_serves"),
	}
	s.tr = newTracer(&s.cfg)
	for i := range s.shards {
		s.shards[i] = newShard(i, &s.cfg)
	}
	s.repl = newReplicator(s, cfg.Replicas, cfg.PromoteAfter, cfg.PromoteWindow, reg)
	for _, sh := range s.shards {
		// Owner-coordinated replica eviction: when a shard's cache drops
		// a fingerprint, every replica of it goes too. The hook runs
		// outside the cache lock (see FactorCache.finishEvictions), so
		// the replicator's lock never nests inside a cache's.
		sh.cache.SetOnEvict(func(fp string, f *Factor) { s.repl.dropped(fp) })
	}

	s.mux.HandleFunc("POST /v1/factorize", s.tr.traced("/v1/factorize", true, s.handleFactorize))
	s.mux.HandleFunc("POST /v1/solve", s.tr.traced("/v1/solve", true, s.handleSolve))
	s.mux.HandleFunc("GET /v1/trace/{id}", s.handleTrace)
	s.mux.HandleFunc("GET /v1/stats", s.tr.traced("/v1/stats", false, s.handleStats))
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.Handle("GET /debug/vars", expvar.Handler())
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// NumShards reports the shard count.
func (s *Server) NumShards() int { return len(s.shards) }

// SetDrain marks a shard draining (true) or serving (false). A
// draining shard stops owning fingerprints — the rendezvous order
// promotes the next shard — and stops receiving replica installs; its
// in-flight work finishes normally.
func (s *Server) SetDrain(id int, draining bool) {
	if id >= 0 && id < len(s.shards) {
		s.shards[id].draining.Store(draining)
	}
}

// errorBody is the uniform error envelope.
type errorBody struct {
	Error string `json:"error"`
}

// apiError carries an HTTP status (plus an optional Retry-After hint)
// across the shard/router boundary, so the router can distinguish
// "this shard is full, try a replica" from a terminal failure.
type apiError struct {
	code       int
	retryAfter int // seconds; > 0 emits a Retry-After header
	msg        string
}

func (e *apiError) Error() string { return e.msg }

func apiErrorf(code int, format string, args ...any) *apiError {
	return &apiError{code: code, msg: fmt.Sprintf(format, args...)}
}

// fail writes e as the error envelope, with its Retry-After hint, and
// counts the error.
func (s *Server) fail(w http.ResponseWriter, e *apiError) {
	s.httpErrors.Add(0, 1)
	if e.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(e.retryAfter))
	}
	writeJSON(w, e.code, errorBody{Error: e.msg})
}

func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, 64<<20)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		s.fail(w, apiErrorf(http.StatusBadRequest, "bad request body: %v", err))
		return false
	}
	return true
}

// retryAfterEstimate predicts, in whole seconds, when one of sh's
// admission slots should free: the recent median substitution latency
// times sh's current queue depth. A cold server (no latency history)
// assumes a 25ms solve. Clamped to [1, 30] — the hint steers client
// backoff, it is not a promise. The estimate is deterministic so the
// router can compare shards by it; the client-facing header adds
// jitter on top (retryAfterSeconds) to decorrelate retry storms.
func (s *Server) retryAfterEstimate(sh *shard) int {
	st := solveLatencyStats(s.solveOnly)
	p50 := st.P50MS
	if st.Count == 0 || p50 <= 0 {
		p50 = 25
	}
	inflight := float64(sh.adm.inflight.Load())
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
func (s *Server) retryAfterSeconds(sh *shard) int {
	est := s.retryAfterEstimate(sh)
	if j := est / 4; j > 0 {
		est += rand.Intn(2*j+1) - j
	}
	if est < 1 {
		est = 1
	}
	return est
}

// routeSpec normalizes the spec in place and computes its routing
// fingerprint — once, at the router. The geometry rides along to the
// owner shard, which needs it only on a cache miss.
func (s *Server) routeSpec(sp *ProblemSpec) ([]rbf.Point, string, error) {
	if err := sp.normalize(s.cfg.MaxN); err != nil {
		return nil, "", err
	}
	pts := sp.points()
	if err := validatePoints(pts); err != nil {
		return nil, "", err
	}
	return pts, Fingerprint(*sp, pts), nil
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
	// Shard names the shard that did the work.
	Shard *int `json:"shard,omitempty"`
}

func (s *Server) handleFactorize(w http.ResponseWriter, r *http.Request) {
	s.routeRequests.Add(0, 1)
	var req FactorizeRequest
	if !s.decode(w, r, &req) {
		return
	}
	rt := obs.TraceFrom(r.Context())
	routeStart := rt.Now()
	pts, fp, err := s.routeSpec(&req.Problem)
	if err != nil {
		s.fail(w, apiErrorf(http.StatusBadRequest, "%v", err))
		return
	}
	// Factorizations route to the owner only: building on any other
	// shard would break the one-factorization-per-fingerprint guarantee.
	owner := s.owner(fp)
	rt.Span("router.route", -1, routeStart, rt.Now()-routeStart, obs.SpanInfo{}, false)
	rt.Tag("shard", strconv.Itoa(owner))
	resp, aerr := s.shards[owner].factorize(r.Context(), req.Problem, pts, fp)
	if aerr != nil {
		if aerr.code == http.StatusTooManyRequests {
			s.routeRejected.Add(0, 1)
			aerr.retryAfter = s.retryAfterSeconds(s.shards[owner])
		}
		s.fail(w, aerr)
		return
	}
	resp.Shard = &owner
	writeJSON(w, http.StatusOK, resp)
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
	// Shard names the shard that served the solve; Replica reports
	// whether it served from a replicated copy rather than its own
	// cache.
	Shard   *int `json:"shard,omitempty"`
	Replica bool `json:"replica,omitempty"`
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	s.routeRequests.Add(0, 1)
	var req SolveRequest
	if !s.decode(w, r, &req) {
		return
	}
	rt := obs.TraceFrom(r.Context())
	routeStart := rt.Now()
	var pts []rbf.Point
	fp := req.Fingerprint
	switch {
	case req.Problem != nil:
		var err error
		if pts, fp, err = s.routeSpec(req.Problem); err != nil {
			s.fail(w, apiErrorf(http.StatusBadRequest, "%v", err))
			return
		}
	case fp == "":
		s.fail(w, apiErrorf(http.StatusBadRequest, "request must carry a problem spec or a fingerprint"))
		return
	}
	owner := s.owner(fp)
	cands := s.solveCandidates(fp, owner)
	rt.Span("router.route", -1, routeStart, rt.Now()-routeStart, obs.SpanInfo{}, false)

	// Try candidates best-first. Only capacity rejections fall through
	// to the next copy; every other error is the request's own fault or
	// a real failure, and retrying elsewhere would just repeat it.
	var last *apiError
	for i, id := range cands {
		if i > 0 {
			s.routeFallbacks.Add(0, 1)
		}
		resp, aerr := s.shards[id].solve(r.Context(), &req, pts, fp)
		if aerr != nil && aerr.code == http.StatusTooManyRequests {
			// Keep the most optimistic hint any saturated copy offers.
			aerr.retryAfter = s.retryAfterSeconds(s.shards[id])
			if last == nil || aerr.retryAfter < last.retryAfter {
				last = aerr
			}
			continue
		}
		rt.Tag("shard", strconv.Itoa(id))
		if aerr != nil {
			s.fail(w, aerr)
			return
		}
		resp.Shard = &id
		resp.Replica = id != owner
		if id != owner {
			s.replicaServes.Add(0, 1)
		}
		s.solveOnly.Record(resp.SubstMS)
		s.repl.noteSolve(fp, owner)
		writeJSON(w, http.StatusOK, resp)
		return
	}
	s.routeRejected.Add(0, 1)
	s.fail(w, last)
}

// SingleFlightStats aggregates the server-wide factorization economy.
type SingleFlightStats struct {
	// FactorizeRuns is the total number of factorizations actually
	// executed across all shards — the keystone number: a burst of
	// identical requests should move it by exactly one.
	FactorizeRuns uint64 `json:"factorize_runs"`
	CacheHits     uint64 `json:"cache_hits"`
	Waits         uint64 `json:"singleflight_waits"`
}

// RouterStats counts routing outcomes.
type RouterStats struct {
	Requests      uint64 `json:"requests"`
	Fallbacks     uint64 `json:"fallbacks"`
	Rejected      uint64 `json:"rejected"`
	ReplicaServes uint64 `json:"replica_serves"`
}

// ReplicationStats summarizes hot-factor replication.
type ReplicationStats struct {
	Promotions uint64 `json:"promotions"`
	Drops      uint64 `json:"drops"`
	Active     int    `json:"active"`
}

// ShardStatsEntry is one shard's row of /v1/stats.
type ShardStatsEntry struct {
	ID            int            `json:"id"`
	Draining      bool           `json:"draining"`
	FactorizeRuns uint64         `json:"factorize_runs"`
	Cache         CacheStats     `json:"cache"`
	Admission     AdmissionStats `json:"admission"`
	Replica       ReplicaStats   `json:"replica"`
}

// StatsResponse is the /v1/stats body: occupancy plus both lifetime
// totals and the delta window since the previous stats scrape —
// Snapshot/Delta semantics built for exactly this long-lived process.
// Cache, Admission and Replica sum the per-shard rows in Shards.
type StatsResponse struct {
	UptimeSec float64           `json:"uptime_sec"`
	Cache     CacheStats        `json:"cache"`
	Admission AdmissionStats    `json:"admission"`
	Replica   ReplicaStats      `json:"replica"`
	SolveOnly SolveLatencyStats `json:"solve_only"`
	// Request covers end-to-end /v1/solve latency (queueing, routing,
	// batching and response overhead included) with a per-percentile
	// breakdown; SolveOnly above remains the substitution-only series.
	Request RequestLatencyStats `json:"request"`
	// Flight summarizes the trace recorder: how many traces are
	// retained and which retained request was slowest.
	Flight obs.FlightStats `json:"flight"`
	// Totals and Window are the unprefixed /metrics counters: the front
	// end's registry plus every shard's, summed by name.
	Totals       map[string]uint64 `json:"totals"`
	Window       map[string]uint64 `json:"window"`
	Shards       []ShardStatsEntry `json:"shards"`
	SingleFlight SingleFlightStats `json:"single_flight"`
	Router       RouterStats       `json:"router"`
	Replication  ReplicationStats  `json:"replication"`
}

// metrics snapshots the server: the whole-server view (front-end
// registry plus the shards' registries, summed by name) and each
// shard's own.
func (s *Server) metrics() (obs.MetricsSnapshot, []obs.MetricsSnapshot) {
	snaps := make([]obs.MetricsSnapshot, len(s.shards)+1)
	snaps[0] = s.reg.Snapshot()
	for i, sh := range s.shards {
		snaps[i+1] = sh.reg.Snapshot()
	}
	return obs.Merge(snaps...), snaps[1:]
}

// Metrics returns the whole-server metrics: the unprefixed part of
// /metrics.
func (s *Server) Metrics() obs.MetricsSnapshot {
	whole, _ := s.metrics()
	return whole
}

// Stats assembles the /v1/stats body. Each call closes the delta
// window the previous call opened.
func (s *Server) Stats() StatsResponse {
	snap := s.Metrics()
	s.statsMu.Lock()
	delta := snap.Delta(s.lastSnap)
	s.lastSnap = snap
	s.statsMu.Unlock()

	resp := StatsResponse{
		UptimeSec: time.Since(s.started).Seconds(),
		SolveOnly: solveLatencyStats(s.solveOnly),
		Request:   requestLatencyStats(s.tr.reqLatency),
		Flight:    s.tr.flight.Stats(),
		Totals:    snap.CounterMap(),
		Window:    delta.CounterMap(),
		Shards:    make([]ShardStatsEntry, len(s.shards)),
		Router: RouterStats{
			Requests:      s.routeRequests.Value(),
			Fallbacks:     s.routeFallbacks.Value(),
			Rejected:      s.routeRejected.Value(),
			ReplicaServes: s.replicaServes.Value(),
		},
		Replication: ReplicationStats{
			Promotions: s.repl.promotions.Value(),
			Drops:      s.repl.drops.Value(),
			Active:     s.repl.activeReplicas(),
		},
	}
	for i, sh := range s.shards {
		e := sh.stats()
		resp.Shards[i] = e
		resp.Cache = resp.Cache.plus(e.Cache)
		resp.Admission = resp.Admission.plus(e.Admission)
		resp.Replica = resp.Replica.plus(e.Replica)
		resp.SingleFlight.FactorizeRuns += e.FactorizeRuns
	}
	resp.SingleFlight.CacheHits = resp.Cache.Hits
	resp.SingleFlight.Waits = resp.Cache.Waits
	return resp
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// handleMetrics prints the unprefixed whole-server metrics, then one
// shardN.-prefixed block per shard.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	whole, shards := s.metrics()
	fmt.Fprint(w, whole.String())
	for i, snap := range shards {
		fmt.Fprint(w, snap.StringPrefix(fmt.Sprintf("shard%d.", i)))
	}
	var inflight int64
	for _, sh := range s.shards {
		inflight += sh.adm.inflight.Load()
	}
	fmt.Fprintf(w, "  %-28s %s\n", "serve.uptime", time.Since(s.started).Round(time.Second))
	fmt.Fprintf(w, "  %-28s %d\n", "serve.inflight", inflight)
	fmt.Fprintf(w, "  %-28s %d\n", "serve.shards", len(s.shards))
}
