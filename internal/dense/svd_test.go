package dense

import (
	"math"
	"math/rand"
	"testing"
)

// svdRowMajorRef is the row-major one-sided Jacobi SVD that SVDWS
// replaced, kept as the reference for the layout-neutrality test: it
// walks columns through strided At/Set, has no negligible-column
// deflation and no prescaling, and returns the sweeps it ran.
func svdRowMajorRef(a *Matrix) (SVDResult, int) {
	m, n := a.Rows, a.Cols
	if m < n {
		res, sweeps := svdRowMajorRef(a.T())
		return SVDResult{U: res.V, S: res.S, V: res.U}, sweeps
	}
	u := a.Clone()
	v := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		v.Set(i, i, 1)
	}
	const maxSweeps = 60
	eps := 1e-15
	sweeps := 0
	for sweeps < maxSweeps {
		sweeps++
		off := 0.0
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				var app, aqq, apq float64
				for i := 0; i < m; i++ {
					up := u.At(i, p)
					uq := u.At(i, q)
					app += up * up
					aqq += uq * uq
					apq += up * uq
				}
				if math.Abs(apq) <= eps*math.Sqrt(app*aqq) || apq == 0 {
					continue
				}
				off += apq * apq
				tau := (aqq - app) / (2 * apq)
				var t float64
				if tau >= 0 {
					t = 1 / (tau + math.Sqrt(1+tau*tau))
				} else {
					t = -1 / (-tau + math.Sqrt(1+tau*tau))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := c * t
				for i := 0; i < m; i++ {
					up := u.At(i, p)
					uq := u.At(i, q)
					u.Set(i, p, c*up-s*uq)
					u.Set(i, q, s*up+c*uq)
				}
				for i := 0; i < n; i++ {
					vp := v.At(i, p)
					vq := v.At(i, q)
					v.Set(i, p, c*vp-s*vq)
					v.Set(i, q, s*vp+c*vq)
				}
			}
		}
		if off == 0 {
			break
		}
	}
	s := make([]float64, n)
	for j := 0; j < n; j++ {
		var norm float64
		for i := 0; i < m; i++ {
			val := u.At(i, j)
			norm += val * val
		}
		norm = math.Sqrt(norm)
		s[j] = norm
		if norm > 0 {
			inv := 1 / norm
			for i := 0; i < m; i++ {
				u.Set(i, j, u.At(i, j)*inv)
			}
		}
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 1; i < n; i++ {
		for j := i; j > 0 && s[idx[j]] > s[idx[j-1]]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	us := NewMatrix(m, n)
	vs := NewMatrix(n, n)
	ss := make([]float64, n)
	for jNew, jOld := range idx {
		ss[jNew] = s[jOld]
		for i := 0; i < m; i++ {
			us.Set(i, jNew, u.At(i, jOld))
		}
		for i := 0; i < n; i++ {
			vs.Set(i, jNew, v.At(i, jOld))
		}
	}
	return SVDResult{U: us, S: ss, V: vs}, sweeps
}

// bitwiseEqual reports whether a and b have the same shape and the same
// bit pattern in every entry.
func bitwiseEqual(a, b *Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			if math.Float64bits(a.At(i, j)) != math.Float64bits(b.At(i, j)) {
				return false
			}
		}
	}
	return true
}

// TestSVDMatchesRowMajorReference pins the column-major rewrite to the
// row-major Jacobi bit for bit on full-rank inputs, where deflation never
// fires and the power-of-two prescale is exact.
func TestSVDMatchesRowMajorReference(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, d := range [][2]int{{1, 1}, {5, 1}, {1, 5}, {8, 8}, {20, 7}, {7, 20}, {33, 33}, {64, 48}, {48, 64}} {
		a := Random(rng, d[0], d[1])
		want, _ := svdRowMajorRef(a)
		got := SVD(a)
		if !bitwiseEqual(got.U, want.U) || !bitwiseEqual(got.V, want.V) {
			t.Fatalf("%dx%d: U or V differs from the row-major reference", d[0], d[1])
		}
		for i := range want.S {
			if math.Float64bits(got.S[i]) != math.Float64bits(want.S[i]) {
				t.Fatalf("%dx%d: S[%d] = %v, reference %v", d[0], d[1], i, got.S[i], want.S[i])
			}
		}
	}
}

// maxOrthoErr returns max |QᵀQ − I| over the columns of q.
func maxOrthoErr(q *Matrix) float64 {
	g := NewMatrix(q.Cols, q.Cols)
	Gemm(Trans, NoTrans, 1, q, q, 0, g)
	var worst float64
	for i := 0; i < g.Rows; i++ {
		for j := 0; j < g.Cols; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			worst = math.Max(worst, math.Abs(g.At(i, j)-want))
		}
	}
	return worst
}

// TestSVDExtremeScale checks that the decomposition is scale-invariant:
// entries near 1e±80 and 1e±150 used to overflow or underflow app·aqq in
// the stopping test, leaving U far from orthogonal.
func TestSVDExtremeScale(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	base := Random(rng, 6, 6)
	wide := Random(rng, 4, 9)
	for _, scale := range []float64{1e80, 1e-80, 1e150, 1e-150} {
		for _, b := range []*Matrix{base, wide} {
			a := b.Clone()
			a.Scale(scale)
			res := SVD(a)
			if e := maxOrthoErr(res.U); e > 1e-13 {
				t.Fatalf("scale %g %dx%d: max|UᵀU−I| = %g", scale, a.Rows, a.Cols, e)
			}
			if e := maxOrthoErr(res.V); e > 1e-13 {
				t.Fatalf("scale %g %dx%d: max|VᵀV−I| = %g", scale, a.Rows, a.Cols, e)
			}
			us := res.U.Clone()
			for j, s := range res.S {
				for i := 0; i < us.Rows; i++ {
					us.Set(i, j, us.At(i, j)*s)
				}
			}
			back := NewMatrix(a.Rows, a.Cols)
			Gemm(NoTrans, Trans, 1, us, res.V, 0, back)
			if d := FrobDiff(back, a) / a.FrobNorm(); d > 1e-13 {
				t.Fatalf("scale %g %dx%d: relative reconstruction error %g", scale, a.Rows, a.Cols, d)
			}
		}
	}
}
