package core

import (
	"errors"
	"maps"
	"strings"
	"testing"

	"math/rand"
	"tlrchol/internal/dense"
	"tlrchol/internal/dist"
	"tlrchol/internal/obs"
	"tlrchol/internal/rbf"
	"tlrchol/internal/tilemat"
	"tlrchol/internal/trim"
)

// rbfMatrix builds a compressed RBF kernel matrix plus its dense
// reference, the paper's target operator. deltaFactor scales the
// physical default shape parameter δ = ½·min distance; larger factors
// strengthen correlations (denser compressed matrix) at the cost of
// conditioning, so a nugget proportional to the compression threshold
// keeps the operator SPD through the truncation perturbations.
func rbfMatrix(t *testing.T, n, b int, deltaFactor, tol float64) (*tilemat.Matrix, *dense.Matrix) {
	t.Helper()
	pts := rbf.VirusPopulation(rbf.DefaultVirusConfig(n))[:n]
	delta := deltaFactor * rbf.DefaultShape(pts)
	prob, _ := rbf.NewProblem(pts, rbf.Gaussian{Delta: delta, Nugget: 100 * tol})
	m, _ := tilemat.FromAssembler(n, b, prob.Block, tol, 0)
	return m, prob.Dense()
}

func TestSequentialFactorizeDenseTiles(t *testing.T) {
	// Tight tolerance keeps everything effectively exact: TLR Cholesky
	// must match the dense factorization.
	rng := rand.New(rand.NewSource(1))
	a := dense.RandomSPD(rng, 96)
	m, _ := tilemat.FromDense(a, 32, 1e-12, 0)
	rep, err := Factorize(m, Options{Tol: 1e-12, Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Potrf != 3 {
		t.Fatalf("potrf count %d", rep.Potrf)
	}
	if e := FactorError(m, a); e > 1e-9 {
		t.Fatalf("factor error %g", e)
	}
}

// TestFactorizeRBFSVDConverges checks that no recompression SVD of an
// N=1024 RBF factorization stops at the Jacobi sweep cap: the
// dense.svd.capped counter must not move.
func TestFactorizeRBFSVDConverges(t *testing.T) {
	capped := obs.Default.Counter("dense.svd.capped")
	m, _ := rbfMatrix(t, 1024, 128, 2, 1e-6)
	before := capped.Value()
	if _, err := Factorize(m, Options{Tol: 1e-6, Trim: true}); err != nil {
		t.Fatal(err)
	}
	if n := capped.Value() - before; n != 0 {
		t.Fatalf("%d recompression SVDs hit the Jacobi sweep cap", n)
	}
}

func TestFactorizeRBFAccuracy(t *testing.T) {
	for _, tol := range []float64{1e-4, 1e-6, 1e-8} {
		m, a := rbfMatrix(t, 512, 64, 4, tol)
		if _, err := Factorize(m, Options{Tol: tol, Trim: true, Workers: 2}); err != nil {
			t.Fatalf("tol=%g: %v", tol, err)
		}
		e := FactorError(m, a)
		// Error accumulates over NT panels; allow a generous constant.
		if e > 500*tol {
			t.Fatalf("tol=%g: factor error %g too large", tol, e)
		}
	}
}

// factorizers maps each factor form to its driver and a test operator:
// the SPD RBF matrix for Cholesky, the indefinite augmented system for
// LDLᵀ (n=636 gives dimension 640).
var factorizers = map[string]struct {
	factorize func(*tilemat.Matrix, Options) (Report, error)
	operator  func(t *testing.T, n, b int, tol float64) (*tilemat.Matrix, *dense.Matrix)
}{
	"chol": {Factorize, func(t *testing.T, n, b int, tol float64) (*tilemat.Matrix, *dense.Matrix) {
		return rbfMatrix(t, n, b, 2, tol)
	}},
	"ldlt": {FactorizeLDLt, func(t *testing.T, n, b int, tol float64) (*tilemat.Matrix, *dense.Matrix) {
		return augMatrix(t, n-4, b, tol)
	}},
}

// TestParallelMatchesSequential: for both factor forms, trimmed or
// not, the runtime's schedule must reproduce the loop-order reference
// tile for tile, bit for bit — every tile's write chain runs in the
// same order and the kernels are deterministic.
func TestParallelMatchesSequential(t *testing.T) {
	const tol = 1e-6
	for name, fz := range factorizers {
		base, _ := fz.operator(t, 640, 80, tol)
		for _, trimOn := range []bool{true, false} {
			mSeq, mPar := base.Clone(), base.Clone()
			if _, err := fz.factorize(mSeq, Options{Tol: tol, Trim: trimOn, Sequential: true}); err != nil {
				t.Fatal(err)
			}
			if _, err := fz.factorize(mPar, Options{Tol: tol, Trim: trimOn, Workers: 4}); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < base.NT; i++ {
				for j := 0; j <= i; j++ {
					if !tilesIdentical(mSeq.At(i, j), mPar.At(i, j)) {
						t.Fatalf("%s trim=%v: tile (%d,%d) differs between sequential and parallel", name, trimOn, i, j)
					}
				}
			}
		}
	}
}

func TestTrimmingPreservesNumerics(t *testing.T) {
	// Trimmed and untrimmed factorizations must produce the same factor:
	// trimming only removes no-op tasks.
	mTrim, a := rbfMatrix(t, 512, 64, 1.5, 1e-4)
	mFull := mTrim.Clone()
	repT, err := Factorize(mTrim, Options{Tol: 1e-4, Trim: true, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	repF, err := Factorize(mFull, Options{Tol: 1e-4, Trim: false, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	eT, eF := FactorError(mTrim, a), FactorError(mFull, a)
	if eT > 2*eF+1e-8 && eF > 2*eT+1e-8 {
		t.Fatalf("trimmed %g vs untrimmed %g diverge", eT, eF)
	}
	// Trimming must reduce the task count on a sparse operator.
	if repT.Gemm >= repF.Gemm || repT.Trsm >= repF.Trsm {
		t.Fatalf("trimming removed nothing: gemm %d vs %d", repT.Gemm, repF.Gemm)
	}
	if repT.Analysis <= 0 || repT.AnalysisBytes <= 0 {
		t.Fatalf("analysis overhead not recorded")
	}
	if repF.Analysis != 0 {
		t.Fatalf("untrimmed run should not pay analysis time")
	}
}

func TestTrimmingPredictionMatchesFactorization(t *testing.T) {
	// Every tile that is non-zero after factorization must have been
	// predicted non-zero by Algorithm 1 (the converse may not hold:
	// numerical cancellation can zero a predicted fill-in).
	m, _ := rbfMatrix(t, 512, 64, 1.5, 1e-4)
	pred := Structure(m, true)
	if _, err := Factorize(m, Options{Tol: 1e-4, Trim: true, Sequential: true}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < m.NT; i++ {
		for j := 0; j < i; j++ {
			if m.At(i, j).Rank() > 0 && !pred.NonZero(i, j) {
				t.Fatalf("tile (%d,%d) non-zero but not predicted", i, j)
			}
		}
	}
}

func TestFactorizeRejectsNonSPD(t *testing.T) {
	m := tilemat.New(64, 32) // zero matrix is not SPD
	if _, err := Factorize(m, Options{Tol: 1e-8, Sequential: true}); err == nil {
		t.Fatalf("expected POTRF failure on zero matrix")
	}
	// Parallel path must surface the error too.
	m2 := tilemat.New(64, 32)
	if _, err := Factorize(m2, Options{Tol: 1e-8, Workers: 2}); err == nil {
		t.Fatalf("expected POTRF failure on parallel path")
	}
}

// TestBreakdownErrorShape: a diagonal breakdown surfaces the same way
// on every execution path — the dense kernel's error stays matchable
// and the message names the failing task by its graph label.
func TestBreakdownErrorShape(t *testing.T) {
	const tol = 1e-7
	for _, tc := range []struct {
		form  string
		label string
		// breaks makes the operator fail at the diagonal task label.
		breaks func(m *tilemat.Matrix)
		is     func(error) bool
	}{
		{
			form: "chol", label: "task potrf(2)",
			breaks: func(m *tilemat.Matrix) {
				d := m.At(2, 2).D
				for i := 0; i < d.Rows; i++ {
					d.Data[i*d.Stride+i] = -1
				}
			},
			is: func(err error) bool { return errors.Is(err, dense.ErrNotPositiveDefinite) },
		},
		{
			form: "ldlt", label: "task sytrf(0)",
			breaks: func(m *tilemat.Matrix) { m.At(0, 0).D.Zero() },
			is: func(err error) bool {
				var sp dense.ErrSingularPivot
				return errors.As(err, &sp)
			},
		},
	} {
		fz := factorizers[tc.form]
		base, _ := fz.operator(t, 128, 32, tol)
		tc.breaks(base)
		paths := map[string]func(m *tilemat.Matrix) error{
			"sequential": func(m *tilemat.Matrix) error {
				_, err := fz.factorize(m, Options{Tol: tol, Trim: true, Sequential: true})
				return err
			},
			"parallel": func(m *tilemat.Matrix) error {
				_, err := fz.factorize(m, Options{Tol: tol, Trim: true, Workers: 2})
				return err
			},
		}
		if tc.form == "chol" {
			paths["distributed"] = func(m *tilemat.Matrix) error {
				_, err := FactorizeDistributed(m, DistOptions{Tol: tol, Trim: true, Nodes: 2,
					Remap: dist.Remap{Data: dist.TwoDBC{P: 2, Q: 1}}})
				return err
			}
		}
		for path, run := range paths {
			err := run(base.Clone())
			if err == nil || !tc.is(err) || !strings.Contains(err.Error(), tc.label) {
				t.Errorf("%s %s: want a %s breakdown, got %v", tc.form, path, tc.label, err)
			}
		}
	}
}

func TestFactorizeRejectsBadTol(t *testing.T) {
	m := tilemat.New(64, 32)
	if _, err := Factorize(m, Options{}); err == nil {
		t.Fatalf("expected error for missing Tol")
	}
}

func TestSolveAgainstDense(t *testing.T) {
	m, a := rbfMatrix(t, 384, 64, 4, 1e-8)
	rng := rand.New(rand.NewSource(5))
	xTrue := dense.Random(rng, 384, 3)
	b := dense.NewMatrix(384, 3)
	dense.Gemm(dense.NoTrans, dense.NoTrans, 1, a, xTrue, 0, b)
	if _, err := Factorize(m, Options{Tol: 1e-8, Trim: true, Workers: 2}); err != nil {
		t.Fatal(err)
	}
	x := b.Clone()
	Solve(m, x)
	if r := ResidualNorm(a, x, b); r > 1e-5 {
		t.Fatalf("solve residual %g", r)
	}
}

func TestSolveUnevenTiles(t *testing.T) {
	// N not divisible by B exercises the edge-tile paths end to end.
	n, b := 300, 64
	pts := rbf.VirusPopulation(rbf.DefaultVirusConfig(n))
	prob, _ := rbf.NewProblem(pts[:n], rbf.Gaussian{Delta: 0.02})
	m, _ := tilemat.FromAssembler(n, b, prob.Block, 1e-9, 0)
	a := prob.Dense()
	rng := rand.New(rand.NewSource(6))
	xTrue := dense.Random(rng, n, 2)
	rhs := dense.NewMatrix(n, 2)
	dense.Gemm(dense.NoTrans, dense.NoTrans, 1, a, xTrue, 0, rhs)
	if _, err := Factorize(m, Options{Tol: 1e-9, Trim: true, Sequential: true}); err != nil {
		t.Fatal(err)
	}
	x := rhs.Clone()
	Solve(m, x)
	if r := ResidualNorm(a, x, rhs); r > 1e-6 {
		t.Fatalf("uneven-tile solve residual %g", r)
	}
}

func TestReportTaskCountsMatchStructure(t *testing.T) {
	m, _ := rbfMatrix(t, 512, 64, 1.5, 1e-4)
	s := Structure(m, true)
	p, tr, sy, ge := trim.TaskCounts(s)
	rep, err := Factorize(m, Options{Tol: 1e-4, Trim: true, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Potrf != p || rep.Trsm != tr || rep.Syrk != sy || rep.Gemm != ge {
		t.Fatalf("report counts (%d,%d,%d,%d) != structure (%d,%d,%d,%d)",
			rep.Potrf, rep.Trsm, rep.Syrk, rep.Gemm, p, tr, sy, ge)
	}
	if rep.Runtime.Executed != p+tr+sy+ge {
		t.Fatalf("runtime executed %d != %d tasks", rep.Runtime.Executed, p+tr+sy+ge)
	}
}

func TestFinalDensityReported(t *testing.T) {
	m, _ := rbfMatrix(t, 512, 64, 1.5, 1e-4)
	rep, err := Factorize(m, Options{Tol: 1e-4, Trim: true, Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.FinalDensity <= 0 || rep.FinalDensity > 1 {
		t.Fatalf("final density %g out of range", rep.FinalDensity)
	}
}

func TestNestedDiagMatchesPlain(t *testing.T) {
	// Nested-parallel diagonal POTRF must produce the same factor as the
	// single-task version; only the task decomposition changes.
	mPlain, a := rbfMatrix(t, 512, 128, 4, 1e-8)
	mNested := mPlain.Clone()
	repP, err := Factorize(mPlain, Options{Tol: 1e-8, Trim: true, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	repN, err := Factorize(mNested, Options{Tol: 1e-8, Trim: true, Workers: 2, NestedDiag: 32})
	if err != nil {
		t.Fatal(err)
	}
	eP, eN := FactorError(mPlain, a), FactorError(mNested, a)
	if eN > 10*eP+1e-7 {
		t.Fatalf("nested factor error %g vs plain %g", eN, eP)
	}
	// Nested mode must have executed more (finer) tasks.
	if repN.Runtime.Executed <= repP.Runtime.Executed {
		t.Fatalf("nested parallelism should create sub-tasks: %d vs %d",
			repN.Runtime.Executed, repP.Runtime.Executed)
	}
}

func TestNestedDiagUnevenTile(t *testing.T) {
	// Block size that does not divide the tile exercises edge sub-tiles.
	mN, a := rbfMatrix(t, 300, 100, 4, 1e-9)
	if _, err := Factorize(mN, Options{Tol: 1e-9, Trim: true, Workers: 3, NestedDiag: 48}); err != nil {
		t.Fatal(err)
	}
	if e := FactorError(mN, a); e > 1e-6 {
		t.Fatalf("uneven nested factor error %g", e)
	}
}

func TestDenseBaselineFactorization(t *testing.T) {
	// The ScaLAPACK-style all-dense tile layout must factor exactly
	// through the kernels' dense paths, and TLR at a tight tolerance
	// must agree with it.
	mTLR, a := rbfMatrix(t, 384, 64, 4, 1e-10)
	mDense := tilemat.DenseTiles(a, 64)
	if _, err := Factorize(mDense, Options{Tol: 1e-10, Workers: 2}); err != nil {
		t.Fatal(err)
	}
	if e := FactorError(mDense, a); e > 1e-10 {
		t.Fatalf("dense baseline factor error %g", e)
	}
	if _, err := Factorize(mTLR, Options{Tol: 1e-10, Trim: true, Workers: 2}); err != nil {
		t.Fatal(err)
	}
	if e := FactorError(mTLR, a); e > 1e-6 {
		t.Fatalf("TLR factor error %g", e)
	}
	// And the TLR factor stores far fewer bytes.
	if mTLR.Bytes() >= mDense.Bytes() {
		t.Fatalf("TLR must save memory: %d vs %d", mTLR.Bytes(), mDense.Bytes())
	}
}

// TestInstrumentationSequentialMatchesParallel: the sequential and
// parallel paths record identical task counters and identical
// effective and dense-equivalent flops into their registries, for both
// factor forms.
func TestInstrumentationSequentialMatchesParallel(t *testing.T) {
	const tol = 1e-6
	for name, fz := range factorizers {
		m1, _ := fz.operator(t, 640, 80, tol)
		m2 := m1.Clone()
		r1, err := fz.factorize(m1, Options{Tol: tol, Trim: true, Sequential: true,
			Metrics: obs.NewRegistry(1)})
		if err != nil {
			t.Fatal(err)
		}
		r2, err := fz.factorize(m2, Options{Tol: tol, Trim: true, Workers: 2,
			Metrics: obs.NewRegistry(2)})
		if err != nil {
			t.Fatal(err)
		}
		if r1.DenseFlops != r2.DenseFlops {
			t.Fatalf("%s: dense-equivalent flops diverge: %g vs %g", name, r1.DenseFlops, r2.DenseFlops)
		}
		if r1.EffFlops <= 0 || r1.EffFlops != r2.EffFlops {
			t.Fatalf("%s: effective flops diverge: %g vs %g", name, r1.EffFlops, r2.EffFlops)
		}
		c1, c2 := map[string]uint64{}, map[string]uint64{}
		for _, c := range r1.Metrics.Snapshot().Counters {
			if strings.HasPrefix(c.Name, "tasks.") {
				c1[c.Name] = c.Value
			}
		}
		for _, c := range r2.Metrics.Snapshot().Counters {
			if strings.HasPrefix(c.Name, "tasks.") {
				c2[c.Name] = c.Value
			}
		}
		if len(c1) != nClass || !maps.Equal(c1, c2) {
			t.Fatalf("%s: task counters diverge: %v vs %v", name, c1, c2)
		}
		if r1.TasksExecuted != r2.TasksExecuted {
			t.Fatalf("%s: executed counts diverge: %d vs %d", name, r1.TasksExecuted, r2.TasksExecuted)
		}
		if r1.TasksTrimmed != r2.TasksTrimmed || r1.TasksTrimmed <= 0 {
			t.Fatalf("%s: trimmed counts wrong: %d vs %d", name, r1.TasksTrimmed, r2.TasksTrimmed)
		}
	}
}

// TestUntracedTasksCarryNoInfo: without a tracer the graph builder must
// not allocate span annotations (the zero-cost-off contract).
func TestUntracedTasksCarryNoInfo(t *testing.T) {
	const tol = 1e-6
	m, _ := rbfMatrix(t, 512, 64, 2, tol)
	g := BuildGraph(m, tilemat.FormCholesky, Structure(m, true), Options{Tol: tol})
	for i := 0; i < g.Tasks(); i++ {
		if g.Task(i).Info != nil {
			t.Fatalf("task %d carries Info without a tracer", i)
		}
	}
	g2 := BuildGraph(m, tilemat.FormCholesky, Structure(m, true), Options{Tol: tol, Tracer: obs.NewTracer()})
	withInfo := 0
	for i := 0; i < g2.Tasks(); i++ {
		if g2.Task(i).Info != nil {
			withInfo++
		}
	}
	if withInfo != g2.Tasks() {
		t.Fatalf("traced graph should annotate every task: %d/%d", withInfo, g2.Tasks())
	}
}
