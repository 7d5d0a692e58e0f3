package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"tlrchol/internal/core"
	"tlrchol/internal/dense"
	"tlrchol/internal/obs"
	"tlrchol/internal/rbf"
	"tlrchol/internal/tilemat"
	"tlrchol/internal/tlr"
)

// shard is one solve engine: its own factor cache (budget, LRU,
// single-flight), admission gate, batcher, solve-plan workers and
// replica store, on its own metrics registry so per-shard counters
// never collide. It has no HTTP surface: the Server front end decodes
// and routes each request, then calls factorize or solve in process.
type shard struct {
	id       int
	cfg      *Config
	reg      *obs.Registry
	cache    *FactorCache
	batcher  *Batcher
	adm      *Admission
	replicas *replicaStore
	// draining marks a shard that no longer owns fingerprints or takes
	// replica installs (Server.SetDrain); in-flight work finishes.
	draining atomic.Bool

	factorRuns, factorReqs, solveReqs         *obs.Counter
	factorLatency, solveLatency, substLatency *obs.Histogram
}

func newShard(id int, cfg *Config) *shard {
	reg := obs.NewRegistry(0)
	return &shard{
		id:            id,
		cfg:           cfg,
		reg:           reg,
		cache:         NewFactorCache(cfg.CacheBudget, reg),
		batcher:       NewBatcher(cfg.BatchWindow, cfg.MaxBatchCols, cfg.SolveTimeout, cfg.SolveWorkers, reg),
		adm:           NewAdmission(cfg.MaxInflight, reg),
		replicas:      newReplicaStore(reg),
		factorRuns:    reg.Counter("serve.factorize.runs"),
		factorReqs:    reg.Counter("serve.factorize.requests"),
		solveReqs:     reg.Counter("serve.solve.requests"),
		factorLatency: reg.Histogram("serve.factorize.latency_ms", 10, 100, 1000, 10000, 60000),
		solveLatency:  reg.Histogram("serve.solve.latency_ms", 1, 5, 10, 50, 100, 1000, 10000),
		substLatency:  reg.Histogram("serve.solve.subst_ms", 1, 5, 10, 50, 100, 1000, 10000),
	}
}

// overloaded is the 429 for a full admission gate. The front end adds
// the Retry-After hint, which needs the server-wide latency window.
func (sh *shard) overloaded() *apiError {
	return apiErrorf(http.StatusTooManyRequests, "shard %d at capacity (%d inflight); retry after backoff", sh.id, sh.cfg.MaxInflight)
}

// factorize resolves the factor for a spec the front end has already
// normalized and fingerprinted (pts is its geometry).
func (sh *shard) factorize(ctx context.Context, sp ProblemSpec, pts []rbf.Point, fp string) (*FactorizeResponse, *apiError) {
	rt := obs.TraceFrom(ctx)
	start := rt.Now()
	sh.factorReqs.Add(0, 1)
	if !sh.adm.TryAcquire() {
		return nil, sh.overloaded()
	}
	defer sh.adm.Release()
	defer func() { rt.Span("shard.factorize", int32(sh.id), start, rt.Now()-start, obs.SpanInfo{}, false) }()
	rt.Phase("queue", 0, rt.Now())
	resolveStart := rt.Now()
	f, cached, err := sh.resolveFactor(ctx, sp, pts, fp)
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

// resolveFactor gets-or-builds the factor for fp through the
// single-flight cache. Replicated factors are checked first: a replica
// holder serves solves locally without touching its own cache. The
// returned factor is pinned for the caller (Release when the solve is
// done).
func (sh *shard) resolveFactor(ctx context.Context, sp ProblemSpec, pts []rbf.Point, fp string) (*Factor, bool, error) {
	if f, ok := sh.replicas.lookup(fp); ok {
		return f, true, nil
	}
	// The requester that wins the single-flight donates its trace to
	// the build: its /v1/trace shows compress/factorize/plan spans.
	// Waiters see the build only as their "factor" phase duration.
	rt := obs.TraceFrom(ctx)
	return sh.cache.Get(ctx, fp, func() (*Factor, error) {
		return sh.buildFactor(rt, sp, pts, fp)
	})
}

// lookupLocal returns a pinned factor this shard can solve against
// without building: its own cache, or its replica store.
func (sh *shard) lookupLocal(fp string) (*Factor, bool) {
	if f, ok := sh.cache.Lookup(fp); ok {
		return f, true
	}
	return sh.replicas.lookup(fp)
}

// buildFactor assembles, compresses and factorizes the problem. It
// runs under the factorization budget, detached from any one request
// context: a single-flight build may be serving many waiters, so the
// first requester hanging up must not kill it for the rest.
func (sh *shard) buildFactor(rt *obs.ReqTrace, sp ProblemSpec, pts []rbf.Point, fp string) (*Factor, error) {
	ctx, cancel := context.WithTimeout(context.Background(), sh.cfg.FactorizeTimeout)
	defer cancel()
	// The build runs detached from the request's cancellation but keeps
	// its trace: core.Factorize records analyze/run spans against it.
	ctx = obs.ContextWithTrace(ctx, rt)
	sh.factorRuns.Add(0, 1)
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
	m, _, err := tilemat.FromAssemblerParallelComp(sp.Dim(), sp.Tile, asm, sp.Tol, sp.MaxRank, sh.cfg.Workers, comp)
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
		Workers: sh.cfg.Workers,
		Context: ctx,
		Metrics: sh.reg,
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
	sh.factorLatency.Observe(0, float64(elapsed.Milliseconds()))
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

// solve runs one solve. A request carrying a problem spec arrives
// normalized and fingerprinted by the front end (pts is its geometry,
// used only on a cache miss); a fingerprint-only request (pts nil) is
// served from this shard's cache or replica store, or 404s. The factor
// stays pinned from acquisition to the end of response assembly, so
// concurrent eviction can drop it from the cache but never free it
// mid-substitution.
func (sh *shard) solve(ctx context.Context, req *SolveRequest, pts []rbf.Point, fp string) (resp *SolveResponse, aerr *apiError) {
	reqStart := time.Now()
	rt := obs.TraceFrom(ctx)
	start := rt.Now()
	sh.solveReqs.Add(0, 1)
	if !sh.adm.TryAcquire() {
		return nil, sh.overloaded()
	}
	defer sh.adm.Release()
	defer func() { rt.Span("shard.solve", int32(sh.id), start, rt.Now()-start, obs.SpanInfo{}, false) }()

	// Validate the cheap parts (RHS shape) before paying for any
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
	if req.Problem != nil {
		n = req.Problem.N
	} else {
		var ok bool
		f, ok = sh.lookupLocal(fp)
		if !ok {
			return nil, apiErrorf(http.StatusNotFound, "no cached factor for fingerprint %q; send a problem spec", fp)
		}
		cached = true
		n = f.Spec.N
	}
	cols, err := buildRHS(req, n, sh.cfg.MaxBatchCols)
	if err != nil {
		return nil, apiErrorf(http.StatusBadRequest, "%v", err)
	}
	// Queue covers everything up to factor resolution: decode, routing,
	// admission, validation, RHS materialization.
	rt.Phase("queue", 0, rt.Now())
	resolveStart := rt.Now()
	if f == nil {
		f, cached, err = sh.resolveFactor(ctx, *req.Problem, pts, fp)
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

	sctx, cancel := context.WithTimeout(ctx, sh.cfg.SolveTimeout)
	defer cancel()
	submitAt := rt.Now()
	out := sh.batcher.Solve(sctx, f, p, cols)
	if out.err != nil {
		code := http.StatusInternalServerError
		if errors.Is(out.err, context.Canceled) || errors.Is(out.err, context.DeadlineExceeded) {
			code = http.StatusGatewayTimeout
		}
		return nil, apiErrorf(code, "%v", out.err)
	}
	sh.solveLatency.Observe(0, float64(time.Since(reqStart).Milliseconds()))
	substMS := float64(out.subst) / float64(time.Millisecond)
	sh.substLatency.Observe(0, substMS)

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

// stats is the shard's row of /v1/stats.
func (sh *shard) stats() ShardStatsEntry {
	return ShardStatsEntry{
		ID:            sh.id,
		Draining:      sh.draining.Load(),
		FactorizeRuns: sh.factorRuns.Value(),
		Cache:         sh.cache.Stats(),
		Admission:     sh.adm.Stats(),
		Replica:       sh.replicas.stats(),
	}
}
