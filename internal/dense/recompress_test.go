package dense_test

import (
	"math/rand"
	"testing"

	"tlrchol/internal/dense"
	"tlrchol/internal/tlr"
)

// TestRecompressRankDeficientConverges reproduces the recompression core
// that used to run Jacobi to its sweep cap: stacked factors [U₀ | U₀·C]
// and [V₀ | V₀·D] whose QR cores carry exactly dependent columns that
// decay into the subnormal range, where the relative stopping test can
// never pass. Negligible-column deflation must let the SVD converge in
// a handful of sweeps without changing the recompressed tile beyond tol.
func TestRecompressRankDeficientConverges(t *testing.T) {
	const tol = 1e-8
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		u := dense.RandomDependentStack(rng, 64, 16)
		v := dense.RandomDependentStack(rng, 64, 16)

		// The core exactly as RecompressWS forms it.
		ws := dense.GetWorkspace()
		_, ru := dense.QRWS(u, ws)
		_, rv := dense.QRWS(v, ws)
		core := dense.NewMatrix(u.Cols, u.Cols)
		dense.Gemm(dense.NoTrans, dense.Trans, 1, ru, rv, 0, core)
		ws.Release()
		if ref := dense.RowMajorSVDSweeps(core); ref != dense.SVDMaxSweeps {
			t.Fatalf("seed %d: undeflated reference took %d sweeps; the input no longer triggers the cap", seed, ref)
		}
		sweeps, converged := dense.SVDSweeps(core)
		if !converged || sweeps > dense.SVDMaxSweeps/4 {
			t.Fatalf("seed %d: Jacobi took %d sweeps (converged=%v), cap %d", seed, sweeps, converged, dense.SVDMaxSweeps)
		}

		prod := dense.NewMatrix(u.Rows, v.Rows)
		dense.Gemm(dense.NoTrans, dense.Trans, 1, u, v, 0, prod)
		got := tlr.Recompress(u, v, tol, 0).ToDense()
		oracle := tlr.Compress(prod, tol, 0).ToDense()
		if d := dense.FrobDiff(got, prod); d > tol {
			t.Fatalf("seed %d: recompression error %g > tol %g", seed, d, tol)
		}
		if d := dense.FrobDiff(got, oracle); d > tol {
			t.Fatalf("seed %d: recompression differs from the Gemm+Compress oracle by %g > tol %g", seed, d, tol)
		}
	}
}
