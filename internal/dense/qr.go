package dense

import "math"

// QR computes the thin Householder QR factorization A = Q·R of an m×n
// matrix with m ≥ n. It returns Q (m×n with orthonormal columns) and R
// (n×n upper triangular). A is not modified.
func QR(a *Matrix) (q, r *Matrix) {
	ws := GetWorkspace()
	defer ws.Release()
	qw, rw := QRWS(a, ws)
	return qw.Clone(), rw.Clone()
}

// QRWS is QR with all storage — including the returned Q and R — taken
// from ws, so a warm workspace makes the factorization allocation-free.
// The results are only valid until ws.Release; callers keeping them must
// Clone.
func QRWS(a *Matrix, ws *Workspace) (q, r *Matrix) {
	m, n := a.Rows, a.Cols
	if m < n {
		panic("dense: QR requires rows >= cols")
	}
	// Column-major working copy: column j is wc[j*m:(j+1)*m], so every
	// reflector application walks contiguous memory.
	wc := colMajor(a, ws)
	taus := ws.Floats(n)
	// All Householder vectors live in one slab: v_k = vslab[k*m:][:m-k]
	// with v_k[0] = 1 implicit in the stored 1.
	vslab := ws.Floats(n * m)
	for k := 0; k < n; k++ {
		// Compute Householder reflector for column k below the diagonal.
		col := wc[k*m+k : (k+1)*m]
		var norm float64
		for _, x := range col {
			norm += x * x
		}
		norm = math.Sqrt(norm)
		alpha := col[0]
		if norm == 0 {
			taus[k] = 0
			continue
		}
		beta := -math.Copysign(norm, alpha)
		v := vslab[k*m : k*m+m-k]
		v[0] = 1
		denom := alpha - beta
		for i, x := range col[1:] {
			v[i+1] = x / denom
		}
		var vnorm2 float64
		for _, x := range v {
			vnorm2 += x * x
		}
		taus[k] = 2 / vnorm2
		// Apply (I - tau·v·vᵀ) to the trailing columns of work.
		for j := k; j < n; j++ {
			reflect(v, wc[j*m+k:(j+1)*m], taus[k])
		}
	}
	r = ws.Matrix(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			r.Data[i*n+j] = wc[j*m+i]
		}
	}
	// Form thin Q by applying reflectors to the first n columns of I.
	qc := ws.Floats(m * n)
	for j := 0; j < n; j++ {
		qc[j*m+j] = 1
	}
	for k := n - 1; k >= 0; k-- {
		if taus[k] == 0 {
			continue
		}
		v := vslab[k*m : k*m+m-k]
		for j := 0; j < n; j++ {
			reflect(v, qc[j*m+k:(j+1)*m], taus[k])
		}
	}
	return rowMajor(qc, m, n, ws), r
}

// reflect applies the Householder reflector I − tau·v·vᵀ to x in place,
// accumulating vᵀx in index order.
func reflect(v, x []float64, tau float64) {
	x = x[:len(v)]
	var s float64
	for i, vi := range v {
		s += vi * x[i]
	}
	s *= tau
	for i, vi := range v {
		x[i] -= s * vi
	}
}

// colMajor returns a column-major scratch copy of a: column j occupies
// [j*a.Rows, (j+1)*a.Rows).
func colMajor(a *Matrix, ws *Workspace) []float64 {
	m := a.Rows
	c := ws.Floats(m * a.Cols)
	for i := 0; i < m; i++ {
		for j, v := range a.Row(i) {
			c[j*m+i] = v
		}
	}
	return c
}

// rowMajor returns the m×n scratch matrix whose column j is
// c[j*m:(j+1)*m].
func rowMajor(c []float64, m, n int, ws *Workspace) *Matrix {
	out := ws.Matrix(m, n)
	for j := 0; j < n; j++ {
		for i, v := range c[j*m : (j+1)*m] {
			out.Data[i*n+j] = v
		}
	}
	return out
}

// QRCPResult is the outcome of a truncated column-pivoted QR: A·P ≈ Q·R
// with Q m×k orthonormal, R k×n upper trapezoidal, and Perm the column
// permutation (Perm[j] = original index of pivoted column j).
type QRCPResult struct {
	Q    *Matrix
	R    *Matrix
	Perm []int
	// Rank is the detected numerical rank k at the requested tolerance.
	Rank int
}

// QRCP computes a truncated column-pivoted Householder QR of a. The
// factorization stops when the largest remaining column norm drops below
// tol (an absolute threshold), or after maxRank steps (maxRank ≤ 0 means
// min(m,n)). This is the rank-revealing workhorse behind TLR tile
// compression: a ≈ Q·R·Pᵀ with rank columns.
func QRCP(a *Matrix, tol float64, maxRank int) QRCPResult {
	ws := GetWorkspace()
	defer ws.Release()
	res := QRCPWS(a, tol, maxRank, ws)
	perm := make([]int, len(res.Perm))
	copy(perm, res.Perm)
	return QRCPResult{Q: res.Q.Clone(), R: res.R.Clone(), Perm: perm, Rank: res.Rank}
}

// QRCPWS is QRCP with all storage — including the returned Q, R and Perm
// — taken from ws; the results are only valid until ws.Release.
func QRCPWS(a *Matrix, tol float64, maxRank int, ws *Workspace) QRCPResult {
	m, n := a.Rows, a.Cols
	wc := colMajor(a, ws) // column j is wc[j*m:(j+1)*m]
	kmax := m
	if n < kmax {
		kmax = n
	}
	if maxRank > 0 && maxRank < kmax {
		kmax = maxRank
	}
	perm := ws.Ints(n)
	for j := range perm {
		perm[j] = j
	}
	// exactNorm2 is the squared norm of column j from row fromRow down.
	exactNorm2 := func(j, fromRow int) float64 {
		var s float64
		for _, x := range wc[j*m+fromRow : (j+1)*m] {
			s += x * x
		}
		return s
	}
	colNorm2 := ws.Floats(n)
	for j := range colNorm2 {
		colNorm2[j] = exactNorm2(j, 0)
	}
	taus := ws.Floats(kmax)
	vslab := ws.Floats(kmax * m) // v_k = vslab[k*m:][:m-k]
	k := 0
	for ; k < kmax; k++ {
		// Pivot: bring the column with the largest remaining norm to front.
		best, bestNorm := k, colNorm2[k]
		for j := k + 1; j < n; j++ {
			if colNorm2[j] > bestNorm {
				best, bestNorm = j, colNorm2[j]
			}
		}
		// The running downdate colNorm2[j] -= R[k][j]² cancels badly once
		// the true residual is tiny; re-verify the chosen pivot exactly and
		// refresh every norm if it disagrees (LAPACK dgeqp3 strategy).
		if bestNorm <= tol*tol || exactNorm2(best, k) <= 0.5*bestNorm {
			for j := k; j < n; j++ {
				colNorm2[j] = exactNorm2(j, k)
			}
			best, bestNorm = k, colNorm2[k]
			for j := k + 1; j < n; j++ {
				if colNorm2[j] > bestNorm {
					best, bestNorm = j, colNorm2[j]
				}
			}
		}
		if bestNorm <= tol*tol {
			break
		}
		if best != k {
			perm[k], perm[best] = perm[best], perm[k]
			colNorm2[k], colNorm2[best] = colNorm2[best], colNorm2[k]
			ck, cb := wc[k*m:(k+1)*m], wc[best*m:(best+1)*m]
			for i := range ck {
				ck[i], cb[i] = cb[i], ck[i]
			}
		}
		// Householder reflector for column k.
		col := wc[k*m+k : (k+1)*m]
		var norm float64
		for _, x := range col {
			norm += x * x
		}
		norm = math.Sqrt(norm)
		alpha := col[0]
		if norm == 0 {
			break
		}
		beta := -math.Copysign(norm, alpha)
		v := vslab[k*m : k*m+m-k]
		v[0] = 1
		denom := alpha - beta
		for i, x := range col[1:] {
			v[i+1] = x / denom
		}
		var vnorm2 float64
		for _, x := range v {
			vnorm2 += x * x
		}
		tau := 2 / vnorm2
		taus[k] = tau
		col[0] = beta
		clear(col[1:])
		// Apply reflector to trailing columns and downdate column norms.
		for j := k + 1; j < n; j++ {
			reflect(v, wc[j*m+k:(j+1)*m], tau)
			top := wc[j*m+k]
			colNorm2[j] -= top * top
			if colNorm2[j] < 0 {
				colNorm2[j] = 0
			}
		}
	}
	rank := k
	r := ws.Matrix(rank, n)
	for i := 0; i < rank; i++ {
		for j := i; j < n; j++ {
			r.Data[i*n+j] = wc[j*m+i]
		}
	}
	qc := ws.Floats(m * rank)
	for j := 0; j < rank; j++ {
		qc[j*m+j] = 1
	}
	for kk := rank - 1; kk >= 0; kk-- {
		v := vslab[kk*m : kk*m+m-kk]
		for j := 0; j < rank; j++ {
			reflect(v, qc[j*m+kk:(j+1)*m], taus[kk])
		}
	}
	return QRCPResult{Q: rowMajor(qc, m, rank, ws), R: r, Perm: perm, Rank: rank}
}

// UnpermuteColumns returns R·Pᵀ as a dense matrix: column perm[j] of the
// output is column j of r. Used to undo the pivoting from QRCP.
func UnpermuteColumns(r *Matrix, perm []int) *Matrix {
	out := NewMatrix(r.Rows, len(perm))
	for j, pj := range perm {
		for i := 0; i < r.Rows; i++ {
			out.Set(i, pj, r.At(i, j))
		}
	}
	return out
}
