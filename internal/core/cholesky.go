// Package core implements the paper's primary contribution: the tile
// low-rank (TLR) Cholesky factorization that exploits data sparsity via
// dynamic DAG trimming (Section VI), executed either sequentially, on
// the shared-memory task runtime, or projected onto the distributed
// simulator (package sim). It also provides the TLR triangular solves
// that turn the factor into mesh-deformation solutions, and accuracy
// verification helpers.
package core

import (
	"context"
	"fmt"
	"time"

	"tlrchol/internal/obs"
	"tlrchol/internal/runtime"
	"tlrchol/internal/tilemat"
	"tlrchol/internal/tlr"
	"tlrchol/internal/trim"
)

// Options configures a factorization.
type Options struct {
	// Tol is the accuracy threshold used for low-rank accumulation
	// during the factorization (usually the compression threshold).
	Tol float64
	// MaxRank caps stored ranks (≤ 0: unlimited).
	MaxRank int
	// Trim enables the DAG trimming of Section VI: the matrix structure
	// is analyzed with Algorithm 1 and tasks touching null tiles are
	// never created. Without it the full dense DAG is unrolled (the
	// Lorapo behaviour) and null-tile tasks execute as no-ops.
	Trim bool
	// Workers sets the worker-thread count (≤ 0: GOMAXPROCS).
	Workers int
	// Sequential bypasses the runtime and factorizes in loop order
	// (reference implementation used for verification).
	Sequential bool
	// NestedDiag enables nested parallelism: diagonal-tile POTRFs are
	// decomposed into sub-tile task DAGs of this block size (0 keeps
	// them as single tasks). The diagonal tiles carry most of the
	// critical-path flops, so this is the optimization that keeps cores
	// busy through the sequential panel chain (Section VII, inherited
	// from Lorapo).
	NestedDiag int
	// CollectTrace records per-task execution records in Report.Trace
	// (parallel path only).
	CollectTrace bool
	// Tracer, if non-nil, receives the execution's structured event
	// stream: one span per executed task (with tile coordinates, ranks
	// and effective flops), scheduler counter samples and instant events.
	// Nil keeps the instrumented paths on their zero-allocation no-op
	// branches. Parallel path only.
	Tracer *obs.Tracer
	// Metrics selects the registry kernel counters record into; nil uses
	// the process-wide obs.Default. Report carries per-run flop deltas
	// either way, so sharing a registry across runs is fine.
	Metrics *obs.Registry
	// CritPath computes the realized critical path of the executed DAG
	// into Report.CritPath (parallel path only).
	CritPath bool
	// Context, if non-nil, cancels the factorization cooperatively: it
	// is checked before each panel (sequential path) or each task
	// (parallel path), and the first ctx error aborts the run through
	// the runtime's abort protocol. On cancellation the matrix is left
	// partially factorized and must be discarded. The long-lived solve
	// service (internal/serve) uses this to propagate request deadlines.
	Context context.Context
}

// Report describes what a factorization did.
type Report struct {
	// Potrf, Trsm, Syrk, Gemm count the task instances handed to the
	// runtime (after trimming, if enabled).
	Potrf, Trsm, Syrk, Gemm int
	// Elapsed is the factorization wall time; Analysis the Algorithm 1
	// overhead (zero when trimming is off).
	Elapsed, Analysis time.Duration
	// AnalysisBytes is the memory footprint of the trimming analysis.
	AnalysisBytes int
	// Runtime carries the scheduler statistics (parallel path only).
	Runtime runtime.Stats
	// FinalDensity is the off-diagonal density of the factor.
	FinalDensity float64
	// Trace holds per-task execution records when Options.CollectTrace
	// was set.
	Trace []runtime.TaskRecord
	// EffFlops is the effective flop count of the kernels this run
	// executed on their actual (compressed) representations; DenseFlops
	// is what the same update sequence would have cost on dense tiles.
	// Their ratio is the data-sparsity win the paper measures.
	EffFlops, DenseFlops float64
	// TasksExecuted counts the tasks that ran (including nested-POTRF
	// sub-tasks on the parallel path); TasksTrimmed the task instances
	// of the full dense DAG that were never created thanks to trimming
	// (zero when Options.Trim is off).
	TasksExecuted, TasksTrimmed int
	// Metrics is the registry this run recorded into (Options.Metrics,
	// or obs.Default when that was nil).
	Metrics *obs.Registry
	// CritPath is the realized critical-path attribution when
	// Options.CritPath was set (parallel path only).
	CritPath *obs.PathReport
}

// rankArray adapts a tilemat to the trimming analysis input.
type rankArray struct{ m *tilemat.Matrix }

func (r rankArray) NT() int { return r.m.NT }
func (r rankArray) Rank(m, n int) int {
	return r.m.At(m, n).Rank()
}

// Ranks exposes the matrix's post-compression rank structure — the
// input Algorithm 1 analyzes, and the ground truth the static trim
// verifier (package verify) checks an analysis against.
func Ranks(m *tilemat.Matrix) trim.RankArray { return rankArray{m} }

// Structure returns the execution-space description for the matrix
// under the given options: the trimmed Analysis or the implicit Full
// DAG.
func Structure(m *tilemat.Matrix, trimOn bool) trim.Structure {
	if trimOn {
		return trim.Analyze(rankArray{m}, trim.AllLocal)
	}
	return trim.Full{Nt: m.NT}
}

// Factorize computes the TLR Cholesky factorization A = L·Lᵀ in place:
// on return the lower triangle of m holds L (dense diagonal tiles hold
// their Cholesky factors; off-diagonal tiles the solved panels). The
// matrix must be SPD at the compression accuracy.
func Factorize(m *tilemat.Matrix, opts Options) (Report, error) {
	return factorize(m, tilemat.FormCholesky, opts)
}

// FactorizeLDLt computes the TLR LDLᵀ factorization A = L·D·Lᵀ in
// place, the Bunch–Kaufman-free signed variant for symmetric indefinite
// operators: on return each diagonal tile packs its unit-lower L in the
// strict lower triangle and its block of the diagonal matrix D on the
// diagonal (dense.Ldlt layout), off-diagonal tiles hold the solved
// panels, and m.Form is FormLDLt so the solve paths dispatch to the
// forward-L / D-scale / backward-Lᵀ substitution.
//
// No pivoting is performed, so the factorization exists iff every
// leading principal minor is nonzero. That covers the workload this
// opens up — quasi-definite augmented RBF systems [K P; Pᵀ 0] with the
// definite block ordered first — as well as everything Cholesky
// handles (on an SPD operator D comes out positive and L·√D is the
// Cholesky factor). The task shapes, the DAG (and its trimming — the
// analysis is rank-structural, identical for both factorizations), the
// priorities and the hazard declarations all match Factorize; only the
// kernels differ by the diagonal weight. Report.Potrf counts diagonal
// factorizations of either kind; the task-class split lives in the
// metrics registry (tasks.sytrf, …).
func FactorizeLDLt(m *tilemat.Matrix, opts Options) (Report, error) {
	return factorize(m, tilemat.FormLDLt, opts)
}

// factorize is the driver behind Factorize and FactorizeLDLt: on
// success m holds the factor of the given form.
func factorize(m *tilemat.Matrix, form tilemat.Form, opts Options) (Report, error) {
	if opts.Tol <= 0 {
		return Report{}, fmt.Errorf("core: Options.Tol must be positive, got %g", opts.Tol)
	}
	f := &forms[form]
	if opts.NestedDiag > 0 && !f.nestable {
		return Report{}, fmt.Errorf("core: NestedDiag is not supported with %s diagonal tasks", f.diagName)
	}
	var rep Report
	var structure trim.Structure
	// Request-scoped spans (nil-safe): a cache-miss factorization inside
	// the solve service lands its analyze/run intervals on the request's
	// trace, so /v1/trace/<id> explains rebuild latency.
	rt := obs.TraceFrom(opts.Context)
	if opts.Trim {
		t0 := rt.Now()
		a := trim.Analyze(rankArray{m}, trim.AllLocal)
		rt.Span("factor.analyze", -1, t0, rt.Now()-t0, obs.SpanInfo{}, false)
		rep.Analysis = a.AnalysisTime
		rep.AnalysisBytes = a.AnalysisBytes
		structure = a
	} else {
		structure = trim.Full{Nt: m.NT}
	}
	rep.Potrf, rep.Trsm, rep.Syrk, rep.Gemm, rep.TasksTrimmed = taskCounts(structure)

	if opts.Metrics == nil {
		opts.Metrics = obs.Default
	}
	rep.Metrics = opts.Metrics
	in := newInstr(opts.Metrics)
	effBefore, dnsBefore := in.flopTotals()

	start := time.Now()
	runStart := rt.Now()
	var err error
	if opts.Sequential {
		err = factorizeSequential(m, f, structure, opts, in)
		rep.TasksExecuted = rep.Potrf + rep.Trsm + rep.Syrk + rep.Gemm
	} else {
		g := BuildGraph(m, form, structure, opts)
		rep.Runtime, err = g.Run(opts.Workers)
		rep.TasksExecuted = rep.Runtime.Executed
		if opts.CollectTrace {
			rep.Trace = g.Trace()
		}
		if opts.CritPath {
			if nodes := g.PathNodes(); len(nodes) > 0 {
				pr := obs.CriticalPath(nodes)
				rep.CritPath = &pr
			}
		}
	}
	rep.Elapsed = time.Since(start)
	effAfter, dnsAfter := in.flopTotals()
	rep.EffFlops, rep.DenseFlops = effAfter-effBefore, dnsAfter-dnsBefore
	rt.Span("factor.run", -1, runStart, rt.Now()-runStart, obs.SpanInfo{Flops: rep.EffFlops}, rep.EffFlops > 0)
	if err != nil {
		return rep, err
	}
	m.Form = form
	rep.FinalDensity = m.Stats().Density
	return rep, nil
}

// taskCounts tallies the task instances of s per class, and how many
// instances of the full DAG trimming removed.
func taskCounts(s trim.Structure) (potrf, trsm, syrk, gemm, trimmed int) {
	potrf, trsm, syrk, gemm = trim.TaskCounts(s)
	fp, ft, fs, fg := trim.TaskCounts(trim.Full{Nt: s.NT()})
	return potrf, trsm, syrk, gemm, (fp + ft + fs + fg) - (potrf + trsm + syrk + gemm)
}

// factorizeSequential is the loop-order reference implementation, for
// either form. It records into the same instrumentation as the parallel
// path, on shard 0, and reports a failing task the way the runtime
// does.
func factorizeSequential(m *tilemat.Matrix, f *factorForm, s trim.Structure, opts Options, in *instr) error {
	ts := sharedTiles{m}
	cfg := tlr.GemmConfig{Tol: opts.Tol, MaxRank: opts.MaxRank}
	var err error
	run := func(c trim.Class, k, mi, ni int) {
		t := trim.Task{Class: c, K: k, M: mi, N: ni}
		if e := f.exec(ts, t, cfg, in, 0, nil); e != nil && err == nil {
			err = fmt.Errorf("task %s: %w", f.label(t), e)
		}
	}
	for k := 0; k < m.NT && err == nil; k++ {
		if opts.Context != nil && opts.Context.Err() != nil {
			return opts.Context.Err()
		}
		run(trim.Diag, k, k, k)
		if err != nil {
			break
		}
		nb := s.NbTrsm(k)
		for i := 0; i < nb; i++ {
			run(trim.Trsm, k, s.TrsmAt(k, i), k)
		}
		for i := 0; i < nb; i++ {
			mi := s.TrsmAt(k, i)
			run(trim.Syrk, k, mi, mi)
			for j := 0; j < i; j++ {
				run(trim.Gemm, k, mi, s.TrsmAt(k, j))
			}
		}
	}
	return err
}

// BuildGraph unrolls the task graph of the given factorization form
// without running it. Besides wiring the edges (the fast path the
// factorization drivers use), it declares each task's tile accesses, so
// the static verifier (package verify) can independently replay the
// access stream and prove the walk's edges cover every RAW/WAR/WAW
// hazard.
func BuildGraph(m *tilemat.Matrix, form tilemat.Form, s trim.Structure, opts Options) *runtime.Graph {
	f := &forms[form]
	g := runtime.NewGraph()
	g.Observe(opts.Tracer)
	traced := opts.Tracer != nil
	in := newInstr(opts.Metrics)
	cfg := tlr.GemmConfig{Tol: opts.Tol, MaxRank: opts.MaxRank}
	ts := sharedTiles{m}
	newTask := func(t trim.Task, prev *runtime.Task, hasPrev bool) *runtime.Task {
		var task *runtime.Task
		if t.Class == trim.Diag && f.nestable && opts.NestedDiag > 0 && m.TileRows(t.K) >= 2*opts.NestedDiag {
			// prev is nil without a previous writer. The sub-tasks carry
			// their own spans; the tile-level flop accounting is recorded
			// here, statically — a dense POTRF's cost does not depend on
			// runtime state.
			task = addNestedPotrf(g, m.At(t.K, t.K).D, opts.NestedDiag, prev, t.Prio, f.label(t))
			in.diag(f.class[trim.Diag], 0, m.TileRows(t.K), nil)
		} else {
			task = g.NewTask(f.label(t), t.Prio, nil)
			task.Info = spanInfo(traced, t.K, t.M, t.N)
			task.Run = func() error {
				// A cancelled context fails the task, and the runtime's
				// abort protocol drains the rest of the DAG without
				// starting it.
				if opts.Context != nil {
					if err := opts.Context.Err(); err != nil {
						return err
					}
				}
				return f.exec(ts, t, cfg, in, task.Worker(), task.Info)
			}
			if hasPrev {
				g.AddDep(prev, task)
			}
		}
		// A nested POTRF's join stands in as the writer of the diagonal
		// tile for hazard replay.
		task.DeclareAccesses(f.accesses(t)...)
		return task
	}
	trim.Walk(s, newTask, g.AddDep)
	return g
}
