package dense

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// qrRowMajorRef is the row-major Householder QR that QRWS replaced, kept
// as the reference for the layout-neutrality test: the same operations
// in the same order, walking columns through strided At/Set.
func qrRowMajorRef(a *Matrix) (q, r *Matrix) {
	m, n := a.Rows, a.Cols
	work := a.Clone()
	taus := make([]float64, n)
	vslab := make([]float64, n*m)
	for k := 0; k < n; k++ {
		var norm float64
		for i := k; i < m; i++ {
			v := work.At(i, k)
			norm += v * v
		}
		norm = math.Sqrt(norm)
		alpha := work.At(k, k)
		if norm == 0 {
			taus[k] = 0
			continue
		}
		beta := -math.Copysign(norm, alpha)
		v := vslab[k*m : k*m+m-k]
		v[0] = 1
		denom := alpha - beta
		for i := k + 1; i < m; i++ {
			v[i-k] = work.At(i, k) / denom
		}
		var vnorm2 float64
		for _, x := range v {
			vnorm2 += x * x
		}
		taus[k] = 2 / vnorm2
		for j := k; j < n; j++ {
			var s float64
			for i := k; i < m; i++ {
				s += v[i-k] * work.At(i, j)
			}
			s *= taus[k]
			for i := k; i < m; i++ {
				work.Set(i, j, work.At(i, j)-s*v[i-k])
			}
		}
	}
	r = NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			r.Set(i, j, work.At(i, j))
		}
	}
	q = NewMatrix(m, n)
	for i := 0; i < n; i++ {
		q.Set(i, i, 1)
	}
	for k := n - 1; k >= 0; k-- {
		if taus[k] == 0 {
			continue
		}
		v := vslab[k*m : k*m+m-k]
		for j := 0; j < n; j++ {
			var s float64
			for i := k; i < m; i++ {
				s += v[i-k] * q.At(i, j)
			}
			s *= taus[k]
			for i := k; i < m; i++ {
				q.Set(i, j, q.At(i, j)-s*v[i-k])
			}
		}
	}
	return q, r
}

// qrcpRowMajorRef is the row-major truncated column-pivoted QR that
// QRCPWS replaced, kept as the layout-neutrality reference.
func qrcpRowMajorRef(a *Matrix, tol float64, maxRank int) QRCPResult {
	m, n := a.Rows, a.Cols
	work := a.Clone()
	kmax := min(m, n)
	if maxRank > 0 && maxRank < kmax {
		kmax = maxRank
	}
	perm := make([]int, n)
	for j := range perm {
		perm[j] = j
	}
	colNorm2 := make([]float64, n)
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			v := work.At(i, j)
			colNorm2[j] += v * v
		}
	}
	taus := make([]float64, kmax)
	vslab := make([]float64, kmax*m)
	exactNorm2 := func(j, fromRow int) float64 {
		var s float64
		for i := fromRow; i < m; i++ {
			v := work.At(i, j)
			s += v * v
		}
		return s
	}
	k := 0
	for ; k < kmax; k++ {
		best, bestNorm := k, colNorm2[k]
		for j := k + 1; j < n; j++ {
			if colNorm2[j] > bestNorm {
				best, bestNorm = j, colNorm2[j]
			}
		}
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
			for i := 0; i < m; i++ {
				wi := work.Data[i*work.Stride:]
				wi[k], wi[best] = wi[best], wi[k]
			}
		}
		var norm float64
		for i := k; i < m; i++ {
			v := work.At(i, k)
			norm += v * v
		}
		norm = math.Sqrt(norm)
		alpha := work.At(k, k)
		if norm == 0 {
			break
		}
		beta := -math.Copysign(norm, alpha)
		v := vslab[k*m : k*m+m-k]
		v[0] = 1
		denom := alpha - beta
		for i := k + 1; i < m; i++ {
			v[i-k] = work.At(i, k) / denom
		}
		var vnorm2 float64
		for _, x := range v {
			vnorm2 += x * x
		}
		tau := 2 / vnorm2
		taus[k] = tau
		work.Set(k, k, beta)
		for i := k + 1; i < m; i++ {
			work.Set(i, k, 0)
		}
		for j := k + 1; j < n; j++ {
			var s float64
			s += work.At(k, j)
			for i := k + 1; i < m; i++ {
				s += v[i-k] * work.At(i, j)
			}
			s *= tau
			work.Set(k, j, work.At(k, j)-s)
			for i := k + 1; i < m; i++ {
				work.Set(i, j, work.At(i, j)-s*v[i-k])
			}
			top := work.At(k, j)
			colNorm2[j] -= top * top
			if colNorm2[j] < 0 {
				colNorm2[j] = 0
			}
		}
	}
	rank := k
	r := NewMatrix(rank, n)
	for i := 0; i < rank; i++ {
		for j := i; j < n; j++ {
			r.Set(i, j, work.At(i, j))
		}
	}
	q := NewMatrix(m, rank)
	for i := 0; i < rank; i++ {
		q.Set(i, i, 1)
	}
	for kk := rank - 1; kk >= 0; kk-- {
		v := vslab[kk*m : kk*m+m-kk]
		tau := taus[kk]
		for j := 0; j < rank; j++ {
			var s float64
			for i := kk; i < m; i++ {
				s += v[i-kk] * q.At(i, j)
			}
			s *= tau
			for i := kk; i < m; i++ {
				q.Set(i, j, q.At(i, j)-s*v[i-kk])
			}
		}
	}
	return QRCPResult{Q: q, R: r, Perm: perm, Rank: rank}
}

// TestQRMatchesRowMajorReference pins the column-major QRWS and QRCPWS to
// the row-major references bit for bit: the layout change must not move
// a single floating-point operation. The QRCP cases cover full rank,
// tolerance truncation and a rank cap.
func TestQRMatchesRowMajorReference(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	for _, d := range [][2]int{{1, 1}, {6, 1}, {8, 8}, {40, 9}, {64, 32}, {128, 16}} {
		a := Random(rng, d[0], d[1])
		wantQ, wantR := qrRowMajorRef(a)
		gotQ, gotR := QR(a)
		if !bitwiseEqual(gotQ, wantQ) || !bitwiseEqual(gotR, wantR) {
			t.Fatalf("QR %dx%d differs from the row-major reference", d[0], d[1])
		}
	}
	cases := []struct {
		a       *Matrix
		tol     float64
		maxRank int
	}{
		{Random(rng, 9, 14), 0, 0},
		{Random(rng, 50, 30), 0, 0},
		{RandomLowRank(rng, 64, 48, 7), 1e-10, 0},
		{Random(rng, 40, 40), 0, 5},
		{Random(rng, 1, 3), 0, 0},
	}
	for _, c := range cases {
		want := qrcpRowMajorRef(c.a, c.tol, c.maxRank)
		got := QRCP(c.a, c.tol, c.maxRank)
		if got.Rank != want.Rank || !slices.Equal(got.Perm, want.Perm) ||
			!bitwiseEqual(got.Q, want.Q) || !bitwiseEqual(got.R, want.R) {
			t.Fatalf("QRCP %dx%d tol=%g maxRank=%d differs from the row-major reference",
				c.a.Rows, c.a.Cols, c.tol, c.maxRank)
		}
	}
}
