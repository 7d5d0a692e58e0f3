package dense

import (
	"math"

	"tlrchol/internal/obs"
)

// SVDResult holds a (thin) singular value decomposition A = U·diag(S)·Vᵀ
// with U m×k, S length k (descending), V n×k, for k = min(m,n).
type SVDResult struct {
	U *Matrix
	S []float64
	V *Matrix
}

// svdCapped counts SVDs whose Jacobi iteration stopped at the sweep cap
// instead of converging; sharded on the workspace like the pool counters.
var svdCapped = obs.Default.Counter("dense.svd.capped")

// svdMaxSweeps caps the Jacobi iteration; the recompression cores of an
// N=4096 RBF factorization converge within about 20 sweeps.
const svdMaxSweeps = 60

// SVD computes the thin singular value decomposition of a using the
// one-sided Jacobi method: orthogonalize the columns of A by plane
// rotations; the resulting column norms are the singular values. In the
// TLR framework it is only ever applied to small (rank+rank)² core
// matrices during recompression.
//
// A is first scaled by a power of two so that max|aᵢⱼ| ∈ [1,2), which is
// exact and keeps every column inner product clear of overflow and
// underflow; S is scaled back at the end. A pair (p,q) is rotated unless
// |apq| ≤ 1e-15·√app·√aqq, or either column is negligible: its squared
// norm is at most u²·‖A‖²_F with u = 2⁻⁵³. Such a column lies below the
// rounding error of A, so leaving it unrotated is a backward-stable
// perturbation far under any truncation threshold, and it stops Jacobi
// from rotating subnormal noise until the sweep cap.
func SVD(a *Matrix) SVDResult {
	ws := GetWorkspace()
	defer ws.Release()
	res := SVDWS(a, ws)
	s := make([]float64, len(res.S))
	copy(s, res.S)
	return SVDResult{U: res.U.Clone(), S: s, V: res.V.Clone()}
}

// SVDWS is SVD with all storage — including the returned factors —
// taken from ws; the results are only valid until ws.Release.
func SVDWS(a *Matrix, ws *Workspace) SVDResult {
	res, _, converged := svdJacobi(a, ws)
	if !converged {
		svdCapped.Add(ws.Shard(), 1)
	}
	return res
}

// svdJacobi is SVDWS reporting the number of sweeps run and whether the
// iteration converged before svdMaxSweeps.
func svdJacobi(a *Matrix, ws *Workspace) (res SVDResult, sweeps int, converged bool) {
	// Work on Aᵀ when A is wide and swap U and V at the end, so the
	// working matrix is always m×n with m ≥ n.
	trans := a.Rows < a.Cols
	m, n := a.Rows, a.Cols
	if trans {
		m, n = n, m
	}
	// Column-major working copies: column j of U is uc[j*m:(j+1)*m] and
	// column j of V is vc[j*n:(j+1)*n]. Row i of A is column i of Aᵀ.
	var uc []float64
	if trans {
		uc = ws.Floats(m * n)
		for i := 0; i < n; i++ {
			copy(uc[i*m:(i+1)*m], a.Row(i))
		}
	} else {
		uc = colMajor(a, ws)
	}
	vc := ws.Floats(n * n)
	for j := 0; j < n; j++ {
		vc[j*n+j] = 1
	}
	scale := svdPrescale(uc)
	var fro2 float64
	for _, v := range uc {
		fro2 += v * v
	}
	const u2 = 0x1p-106 // unit roundoff squared
	negligible := u2 * fro2
	const eps = 1e-15
	for !converged && sweeps < svdMaxSweeps {
		sweeps++
		off := 0.0
		for p := 0; p < n-1; p++ {
			up := uc[p*m : (p+1)*m]
			vp := vc[p*n : (p+1)*n]
			for q := p + 1; q < n; q++ {
				uq := uc[q*m : (q+1)*m]
				uq = uq[:len(up)]
				var app, aqq, apq float64
				for i, x := range up {
					y := uq[i]
					app += x * x
					aqq += y * y
					apq += x * y
				}
				if app <= negligible || aqq <= negligible || apq == 0 ||
					math.Abs(apq) <= eps*math.Sqrt(app)*math.Sqrt(aqq) {
					continue
				}
				off += apq * apq
				// Jacobi rotation zeroing the (p,q) entry of AᵀA.
				tau := (aqq - app) / (2 * apq)
				var t float64
				if tau >= 0 {
					t = 1 / (tau + math.Sqrt(1+tau*tau))
				} else {
					t = -1 / (-tau + math.Sqrt(1+tau*tau))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := c * t
				rotate(up, uq, c, s)
				rotate(vp, vc[q*n:(q+1)*n], c, s)
			}
		}
		converged = off == 0
	}
	// Column norms are singular values; normalize U's columns.
	s := ws.Floats(n)
	for j := range s {
		col := uc[j*m : (j+1)*m]
		var norm float64
		for _, v := range col {
			norm += v * v
		}
		norm = math.Sqrt(norm)
		s[j] = norm
		if norm > 0 {
			inv := 1 / norm
			for i := range col {
				col[i] *= inv
			}
		}
	}
	// Sort singular values descending, permuting U and V columns alike,
	// and transpose both back to row-major. Insertion sort keeps this
	// allocation-free; n is a small core size.
	idx := ws.Ints(n)
	for i := range idx {
		idx[i] = i
	}
	for i := 1; i < n; i++ {
		for j := i; j > 0 && s[idx[j]] > s[idx[j-1]]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	us := ws.Matrix(m, n)
	vs := ws.Matrix(n, n)
	ss := ws.Floats(n)
	for jNew, jOld := range idx {
		ss[jNew] = math.Ldexp(s[jOld], -scale)
		for i, v := range uc[jOld*m : (jOld+1)*m] {
			us.Data[i*n+jNew] = v
		}
		for i, v := range vc[jOld*n : (jOld+1)*n] {
			vs.Data[i*n+jNew] = v
		}
	}
	if trans {
		us, vs = vs, us
	}
	return SVDResult{U: us, S: ss, V: vs}, sweeps, converged
}

// rotate applies the plane rotation [x y] ← [c·x − s·y, s·x + c·y].
func rotate(x, y []float64, c, s float64) {
	y = y[:len(x)]
	for i, xi := range x {
		yi := y[i]
		x[i] = c*xi - s*yi
		y[i] = s*xi + c*yi
	}
}

// svdPrescale multiplies a by the power of two 2^e that brings max|aᵢ|
// into [1,2) and returns e. The scaling is exact unless a spans more
// than the exponent range, in which case only entries negligible next
// to the largest lose bits. A zero or non-finite a is left alone.
func svdPrescale(a []float64) int {
	var amax float64
	for _, v := range a {
		amax = math.Max(amax, math.Abs(v))
	}
	if amax == 0 || math.IsInf(amax, 0) || math.IsNaN(amax) {
		return 0
	}
	_, e := math.Frexp(amax) // amax = f·2^e, f ∈ [0.5,1)
	e = 1 - e
	if e != 0 {
		for i, v := range a {
			a[i] = math.Ldexp(v, e)
		}
	}
	return e
}

// TruncationRank returns the smallest k such that the discarded tail of
// singular values satisfies sqrt(Σ_{i≥k} s_i²) ≤ tol. With tol treated as
// an absolute Frobenius-norm threshold this matches the HiCMA fixed-
// accuracy compression criterion.
func TruncationRank(s []float64, tol float64) int {
	var tail float64
	k := len(s)
	for i := len(s) - 1; i >= 0; i-- {
		tail += s[i] * s[i]
		if math.Sqrt(tail) > tol {
			break
		}
		k = i
	}
	return k
}
