package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	goruntime "runtime"
	"sync/atomic"
	"time"

	"tlrchol/internal/core"
	"tlrchol/internal/dense"
	"tlrchol/internal/obs"
	"tlrchol/internal/rbf"
	"tlrchol/internal/tilemat"
	"tlrchol/internal/tlr"
)

// pipelineSpec is one points-to-solution workload: the path
// serve.buildFactor runs (problem → compress → factorize → plan),
// followed by a mesh-deformation solve and its residual check.
type pipelineSpec struct {
	n, tile int
	tol     float64
	// compress names the tile compressor (tlr.CompressorFor).
	compress string
	// augmented factors the saddle-point system [K P; Pᵀ 0] with
	// LDLᵀ; otherwise K alone with Cholesky.
	augmented bool
}

var pipelines = map[string]pipelineSpec{
	"pipeline-chol":     {n: 4096, tile: 128, tol: 1e-6, compress: "svd"},
	"pipeline-ldlt-ara": {n: 4096, tile: 128, tol: 1e-6, compress: "ara", augmented: true},
}

// solvePhaseShare is the share of the measured time given to warm
// single-RHS solves against the last factor (solve_p50_ms,
// solve_p99_ms, sat_rate_rps); the rest runs whole pipelines.
const solvePhaseShare = 0.5

// minIterations is the fewest timed pipelines a run makes, whatever
// --seconds says, so time_to_solution_s is always a median of several.
const minIterations = 5

// counterNames are the obs.Default counters whose per-iteration deltas
// the pipelines report.
var counterNames = []string{
	"tlr.compress.lowrank", "tlr.compress.zero", "tlr.ara.rounds", "tlr.ara.samples",
	"tlr.recompress.calls", "tlr.recompress.zero", "gemm.fillin", "workspace.pool.miss",
	"tasks.potrf", "tasks.trsm", "tasks.syrk", "tasks.gemm",
	"tasks.sytrf", "tasks.trsm_d", "tasks.syrk_d", "tasks.gemm_d",
	"solve.run.planned", "solve.run.sequential",
}

func counters() map[string]uint64 {
	out := make(map[string]uint64, len(counterNames))
	snap := obs.Default.Snapshot()
	for _, c := range snap.Counters {
		out[c.Name] = c.Value
	}
	return out
}

func counterDelta(before, after map[string]uint64) map[string]float64 {
	d := make(map[string]float64, len(counterNames))
	for _, name := range counterNames {
		d[name] = float64(after[name] - before[name])
	}
	return d
}

// iteration is what one points-to-solution run measured.
type iteration struct {
	problem, compress, clone, factorize, plan, solve, residual, total time.Duration
	// assembleBusy is the summed time inside the kernel assembler,
	// across workers.
	assembleBusy time.Duration
	comp         tilemat.CompressionStats
	ranks        tilemat.RankStats // before factorization
	rep          core.Report
	factorBytes  int
	resid        float64
	counts       map[string]float64
	allocMB      float64

	// Kept for the warm solve phase after the last iteration.
	m, op     *tilemat.Matrix
	solvePlan *core.SolvePlan
	rhs       *dense.Matrix
}

// baseGeometrySeed fixes the virus population every workload starts
// from: the repository's default geometry (tlrchol, tlrserve).
const baseGeometrySeed = 42

// geometry generates the workload's boundary points: the default
// virus population of n points, shifted rigidly by an offset drawn
// from seed. The shift changes the bits of every input but keeps the
// pairwise distances, the Hilbert order and so the problem's
// difficulty. Other geometries do not: at N=4096 the factorization
// time varies fourfold across population seeds and across rotations
// of this population, which would swamp any effect the benchmark is
// meant to show.
func geometry(n int, seed int64) []rbf.Point {
	cfg := rbf.DefaultVirusConfig(n)
	cfg.Seed = baseGeometrySeed
	pts := rbf.VirusPopulation(cfg)[:n]
	rng := rand.New(rand.NewSource(seed))
	dx, dy, dz := rng.Float64()-0.5, rng.Float64()-0.5, rng.Float64()-0.5
	for i := range pts {
		pts[i].X += dx
		pts[i].Y += dy
		pts[i].Z += dz
	}
	return pts
}

// displacements builds the 3 mesh-deformation right-hand sides: the
// x/y/z boundary displacements of a translation plus a smooth stretch,
// defined in the body frame (relative to the points' centroid) so that
// they move with the geometry. Rows past the point count (the
// polynomial constraint rows of the augmented system) stay zero.
func displacements(pts []rbf.Point, dim int) *dense.Matrix {
	var c rbf.Point
	for _, p := range pts {
		c.X += p.X / float64(len(pts))
		c.Y += p.Y / float64(len(pts))
		c.Z += p.Z / float64(len(pts))
	}
	b := dense.NewMatrix(dim, 3)
	for i, p := range pts {
		q := p.Sub(c)
		b.Set(i, 0, 0.02+0.01*math.Sin(2*math.Pi*q.Y/1.7))
		b.Set(i, 1, -0.015+0.005*math.Cos(2*math.Pi*q.Z/1.7))
		b.Set(i, 2, 0.01*q.X/1.7)
	}
	return b
}

// run executes one points-to-solution pipeline on a private copy of
// pts, timing each public call. tr, when non-nil, traces the
// factorization (with critical-path attribution).
func (p pipelineSpec) run(pts0 []rbf.Point, seed int64, tr *obs.Tracer) (*iteration, []float64, error) {
	pts := append([]rbf.Point(nil), pts0...)
	it := &iteration{}
	before := counters()
	var ms0 goruntime.MemStats
	goruntime.ReadMemStats(&ms0)

	start := time.Now()
	kernel := rbf.Gaussian{Delta: 2 * rbf.DefaultShape(pts), Nugget: 100 * p.tol}
	prob, _ := rbf.NewProblem(pts, kernel)
	t1 := time.Now()
	it.problem = t1.Sub(start)

	dim, base := p.n, tilemat.Assembler(prob.Block)
	if p.augmented {
		dim, base = prob.AugmentedDim(), prob.AugmentedBlock
	}
	var busy atomic.Int64
	asm := func(r0, r1, c0, c1 int) *dense.Matrix {
		s := time.Now()
		blk := base(r0, r1, c0, c1)
		busy.Add(int64(time.Since(s)))
		return blk
	}
	comp, err := tlr.CompressorFor(p.compress, 0, uint64(seed))
	if err != nil {
		return nil, nil, err
	}
	m, cst, err := tilemat.FromAssemblerParallelComp(dim, p.tile, asm, p.tol, 0, 0, comp)
	if err != nil {
		return nil, nil, fmt.Errorf("compression: %w", err)
	}
	t2 := time.Now()
	it.compress, it.assembleBusy, it.comp = t2.Sub(t1), time.Duration(busy.Load()), cst
	it.ranks = m.Stats()

	op := m.Clone()
	t3 := time.Now()
	it.clone = t3.Sub(t2)

	opts := core.Options{Tol: p.tol, Trim: true, Tracer: tr, CritPath: tr != nil}
	var rep core.Report
	if p.augmented {
		rep, err = core.FactorizeLDLt(m, opts)
	} else {
		rep, err = core.Factorize(m, opts)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("factorization: %w", err)
	}
	t4 := time.Now()
	it.factorize, it.rep = t4.Sub(t3), rep

	plan := core.BuildSolvePlan(m)
	t5 := time.Now()
	it.plan = t5.Sub(t4)

	rhs := displacements(prob.Points, dim)
	x := rhs.Clone()
	t6 := time.Now()
	if err := plan.SolveCtx(context.Background(), m, x, 0); err != nil {
		return nil, nil, fmt.Errorf("solve: %w", err)
	}
	t7 := time.Now()
	it.solve = t7.Sub(t6)
	it.resid = core.OperatorResidual(core.TLROperator{M: op}, x, rhs)
	t8 := time.Now()
	it.residual = t8.Sub(t7)
	it.total = t8.Sub(start)

	var ms1 goruntime.MemStats
	goruntime.ReadMemStats(&ms1)
	it.allocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6
	it.counts = counterDelta(before, counters())
	it.factorBytes = m.Bytes()
	it.m, it.op, it.solvePlan, it.rhs = m, op, plan, rhs
	return it, x.Data, nil
}

// accounted is the part of the total the timed public calls cover.
func (it *iteration) accounted() time.Duration {
	return it.problem + it.compress + it.clone + it.factorize + it.plan + it.solve + it.residual
}

// warmSolves runs single-RHS solves plus residual checks against the
// iteration's factor in a closed loop for d, the in-process analogue
// of a served cache-hit solve. It returns per-solve latencies.
func (it *iteration) warmSolves(d time.Duration, tol float64, t *tally) []float64 {
	b := dense.NewMatrix(it.rhs.Rows, 1)
	for i := 0; i < it.rhs.Rows; i++ {
		b.Set(i, 0, it.rhs.At(i, 0))
	}
	x := dense.NewMatrix(b.Rows, 1)
	var lat []float64
	end := time.Now().Add(d)
	for time.Now().Before(end) {
		s := time.Now()
		copy(x.Data, b.Data)
		if err := it.solvePlan.SolveCtx(context.Background(), it.m, x, 0); err != nil {
			t.fail(false, err)
			continue
		}
		resid := core.OperatorResidual(core.TLROperator{M: it.op}, x, b)
		lat = append(lat, millis(time.Since(s)))
		t.check(x.Data, resid, tol)
	}
	return lat
}

// perSecondMedian is the median number of closed-loop solves finished
// in each whole second, given their latencies in order.
func perSecondMedian(lat []float64) float64 {
	var counts []float64
	elapsed, n := 0.0, 0
	for _, l := range lat {
		elapsed += l
		n++
		if elapsed >= 1000 {
			counts = append(counts, float64(n))
			elapsed, n = elapsed-1000, 0
		}
	}
	if len(counts) == 0 {
		return float64(len(lat)) / sum(lat) * 1000
	}
	return median(counts)
}

// solveAllocs is the mean number of heap allocations of one warm
// planned solve (no residual check).
func (it *iteration) solveAllocs() float64 {
	const reps = 20
	x := dense.NewMatrix(it.rhs.Rows, 1)
	_ = it.solvePlan.SolveCtx(context.Background(), it.m, x, 0)
	var ms0, ms1 goruntime.MemStats
	goruntime.ReadMemStats(&ms0)
	for i := 0; i < reps; i++ {
		_ = it.solvePlan.SolveCtx(context.Background(), it.m, x, 0)
	}
	goruntime.ReadMemStats(&ms1)
	return float64(ms1.Mallocs-ms0.Mallocs) / reps
}

// traceSummary reduces a traced factorization to per-class self time
// (task spans are leaves, so a span's duration is its self time), the
// largest GEMM, the GEMM rate and the critical-path split.
func traceSummary(tr *obs.Tracer, rep core.Report, augmented bool) map[string]float64 {
	out := map[string]float64{}
	for _, c := range []string{"potrf", "trsm", "syrk", "gemm", "sytrf", "trsm_d", "syrk_d", "gemm_d"} {
		out["trace."+c+"_s"] = 0
	}
	gemmClass := "gemm"
	if augmented {
		gemmClass = "gemm_d"
	}
	var gemmMax time.Duration
	var gemmFlops float64
	var gemmTime time.Duration
	for _, e := range tr.Events() {
		if e.Kind != obs.KindSpan {
			continue
		}
		class := obs.ClassOf(e.Name)
		if augmented && class != "sytrf" {
			// LDLᵀ tasks carry the Cholesky class labels.
			class += "_d"
		}
		key := "trace." + class + "_s"
		if _, ok := out[key]; !ok {
			continue
		}
		out[key] += secs(e.Dur)
		if class == gemmClass {
			gemmTime += e.Dur
			if e.Dur > gemmMax {
				gemmMax = e.Dur
			}
			if e.HasInfo {
				gemmFlops += e.Info.Flops
			}
		}
	}
	out["trace.gemm_max_ms"] = millis(gemmMax)
	if gemmTime > 0 {
		out["trace.gemm_gflops"] = gemmFlops / gemmTime.Seconds() / 1e9
	}
	if rep.CritPath != nil {
		out["trace.critpath_work_s"] = secs(rep.CritPath.Work)
		out["trace.critpath_bubble_s"] = secs(rep.CritPath.Bubble)
	}
	return out
}

// runPipeline measures one pipeline workload and fills res.
func runPipeline(spec pipelineSpec, o options, res *result) error {
	// Set-up: geometry generation (repeated; the median counts) plus
	// one warm-up pipeline that fills the workspace pools.
	var geoTimes []float64
	var pts []rbf.Point
	for i := 0; i < 5; i++ {
		s := time.Now()
		pts = geometry(spec.n, o.seed)
		geoTimes = append(geoTimes, secs(time.Since(s)))
	}
	res.meta["geometry_digest"] = pointsDigest(pts)
	warmStart := time.Now()
	if _, _, err := spec.run(pts, o.seed, nil); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	res.set("setup_s", median(geoTimes)+secs(time.Since(warmStart)))

	var its []*iteration
	t := &res.tally
	var ms0 goruntime.MemStats
	goruntime.ReadMemStats(&ms0)
	measureStart := time.Now()
	pipeBudget := time.Duration(float64(o.seconds) * (1 - solvePhaseShare) * float64(time.Second))
	for len(its) < minIterations || time.Since(measureStart) < pipeBudget {
		it, x, err := spec.run(pts, o.seed, nil)
		if err != nil {
			t.fail(false, err)
			if t.failed > 3 {
				return err
			}
			continue
		}
		t.check(x, it.resid, spec.tol)
		if len(its) > 0 {
			// Only the last factor is kept, for the warm solves.
			prev := its[len(its)-1]
			prev.m, prev.op, prev.solvePlan, prev.rhs = nil, nil, nil, nil
		}
		its = append(its, it)
	}
	last := its[len(its)-1]
	solveBudget := time.Duration(float64(o.seconds)*float64(time.Second)) - time.Since(measureStart)
	if min := time.Duration(float64(o.seconds) * solvePhaseShare * float64(time.Second)); solveBudget < min {
		solveBudget = min
	}
	lat := last.warmSolves(solveBudget, spec.tol, t)
	var ms1 goruntime.MemStats
	goruntime.ReadMemStats(&ms1)

	pick := func(f func(*iteration) float64) float64 {
		xs := make([]float64, len(its))
		for i, it := range its {
			xs[i] = f(it)
		}
		return median(xs)
	}
	worst := 0.0
	for _, it := range its {
		worst = math.Max(worst, it.resid)
	}
	res.set("time_to_solution_s", pick(func(it *iteration) float64 { return secs(it.total) }))
	res.set("factor_mb", float64(last.factorBytes)/1e6)
	res.set("residual_rel", worst)
	// In process there is no second process to contend with, and the
	// best slice flips between two modes (2.4 and 4.5 ms on ldlt-ara)
	// from run to run; the median over slices does not.
	res.set("solve_p50_ms", sliceQuantile(lat, 0.5))
	res.set("solve_p99_ms", sliceQuantile(lat, 0.99))
	res.set("sat_rate_rps", perSecondMedian(lat))
	res.set("factorize_p50_ms", pick(func(it *iteration) float64 {
		return millis(it.compress + it.clone + it.factorize + it.plan)
	}))
	res.set("ok_frac", t.okFrac())
	res.meta["iterations"] = len(its)
	res.meta["warm_solves"] = len(lat)

	if !o.trace {
		return nil
	}
	res.set("rbf.problem_s", pick(func(it *iteration) float64 { return secs(it.problem) }))
	res.set("rbf.assemble_busy_s", pick(func(it *iteration) float64 { return secs(it.assembleBusy) }))
	res.set("tilemat.compress_s", pick(func(it *iteration) float64 { return secs(it.compress) }))
	res.set("tilemat.ratio", float64(last.comp.DenseBytes)/float64(last.comp.CompressedBytes))
	res.set("tilemat.rank_avg", last.ranks.Avg)
	res.set("tilemat.rank_max", float64(last.ranks.Max))
	res.set("tilemat.density", last.ranks.Density)
	res.set("trim.analyze_s", pick(func(it *iteration) float64 { return secs(it.rep.Analysis) }))
	res.set("trim.tasks_executed", float64(last.rep.TasksExecuted))
	res.set("trim.tasks_trimmed", float64(last.rep.TasksTrimmed))
	res.set("core.factorize_s", pick(func(it *iteration) float64 { return secs(it.factorize) }))
	res.set("core.eff_gflops", pick(func(it *iteration) float64 {
		return it.rep.EffFlops / it.rep.Elapsed.Seconds() / 1e9
	}))
	res.set("runtime.idle_share", pick(func(it *iteration) float64 {
		rs := it.rep.Runtime
		return 1 - rs.BusyTime.Seconds()/(float64(rs.Workers)*rs.Elapsed.Seconds())
	}))
	res.set("runtime.critpath_tasks", float64(last.rep.Runtime.CriticalPathTasks))
	res.set("runtime.max_ready", pick(func(it *iteration) float64 { return float64(it.rep.Runtime.MaxReady) }))
	for name, v := range last.counts {
		res.set(name, v)
	}
	// workspace.pool.miss depends on pool state, not only on the input.
	res.set("workspace.pool.miss", pick(func(it *iteration) float64 { return it.counts["workspace.pool.miss"] }))
	res.set("core.plan_build_ms", pick(func(it *iteration) float64 { return millis(it.plan) }))
	res.set("core.solve_ms", pick(func(it *iteration) float64 { return millis(it.solve) }))
	res.set("core.residual_ms", pick(func(it *iteration) float64 { return millis(it.residual) }))
	res.set("core.solve_allocs", last.solveAllocs())
	res.set("unaccounted_share", pick(func(it *iteration) float64 {
		return 1 - it.accounted().Seconds()/it.total.Seconds()
	}))
	res.set("proc.alloc_mb", pick(func(it *iteration) float64 { return it.allocMB }))
	res.set("proc.gc_cycles", float64(ms1.NumGC-ms0.NumGC))

	// One extra traced pipeline: per-class self time and the critical
	// path, plus the tracing overhead against the untraced median.
	tr := obs.NewTracer()
	it, x, err := spec.run(pts, o.seed, tr)
	if err != nil {
		return fmt.Errorf("traced run: %w", err)
	}
	t.check(x, it.resid, spec.tol)
	for k, v := range traceSummary(tr, it.rep, spec.augmented) {
		res.set(k, v)
	}
	res.set("trace.overhead_share", secs(it.factorize)/pick(func(it *iteration) float64 { return secs(it.factorize) })-1)
	return nil
}
