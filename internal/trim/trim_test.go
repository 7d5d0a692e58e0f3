package trim

import (
	"math/rand"
	"testing"
)

// denseRanks builds a RankArray where every off-diagonal tile has rank r.
func denseRanks(nt, r int) Ranks {
	rk := make([][]int, nt)
	for m := range rk {
		rk[m] = make([]int, m)
		for n := range rk[m] {
			rk[m][n] = r
		}
	}
	return Ranks{N: nt, R: rk}
}

// randomRanks builds a RankArray whose off-diagonal tiles are non-zero
// with probability density, at ranks 1..5.
func randomRanks(rng *rand.Rand, nt int, density float64) Ranks {
	rk := make([][]int, nt)
	for m := range rk {
		rk[m] = make([]int, m)
		for n := range rk[m] {
			if rng.Float64() < density {
				rk[m][n] = 1 + rng.Intn(5)
			}
		}
	}
	return Ranks{N: nt, R: rk}
}

func TestFullStructureCounts(t *testing.T) {
	nt := 6
	f := Full{Nt: nt}
	potrf, trsm, syrk, gemm := TaskCounts(f)
	if potrf != nt {
		t.Fatalf("potrf=%d", potrf)
	}
	if trsm != nt*(nt-1)/2 {
		t.Fatalf("trsm=%d want %d", trsm, nt*(nt-1)/2)
	}
	if syrk != nt*(nt-1)/2 {
		t.Fatalf("syrk=%d", syrk)
	}
	// GEMM count of dense tile Cholesky: sum over (m>n) of n = NT(NT-1)(NT-2)/6.
	want := nt * (nt - 1) * (nt - 2) / 6
	if gemm != want {
		t.Fatalf("gemm=%d want %d", gemm, want)
	}
	if FinalDensity(f) != 1 {
		t.Fatalf("full structure density must be 1")
	}
}

func TestAnalyzeDenseEqualsFull(t *testing.T) {
	nt := 7
	a := Analyze(denseRanks(nt, 5), AllLocal)
	f := Full{Nt: nt}
	ap, at, as, ag := TaskCounts(a)
	fp, ft, fs, fg := TaskCounts(f)
	if ap != fp || at != ft || as != fs || ag != fg {
		t.Fatalf("dense analysis (%d,%d,%d,%d) != full (%d,%d,%d,%d)",
			ap, at, as, ag, fp, ft, fs, fg)
	}
	// Element-wise equality of the execution spaces.
	for k := 0; k < nt; k++ {
		for i := 0; i < f.NbTrsm(k); i++ {
			if a.TrsmAt(k, i) != f.TrsmAt(k, i) {
				t.Fatalf("trsm space differs at k=%d i=%d", k, i)
			}
		}
	}
	for m := 1; m < nt; m++ {
		for n := 0; n < m; n++ {
			for i := 0; i < f.NbGemm(m, n); i++ {
				if a.GemmAt(m, n, i) != f.GemmAt(m, n, i) {
					t.Fatalf("gemm space differs at (%d,%d) i=%d", m, n, i)
				}
			}
		}
	}
}

func TestAnalyzeAllZeroOffDiagonal(t *testing.T) {
	// Diagonal-only matrix: no TRSM, SYRK or GEMM at all.
	a := Analyze(denseRanks(8, 0), AllLocal)
	potrf, trsm, syrk, gemm := TaskCounts(a)
	if potrf != 8 || trsm != 0 || syrk != 0 || gemm != 0 {
		t.Fatalf("diagonal matrix should trim everything: %d %d %d %d", potrf, trsm, syrk, gemm)
	}
	if FinalDensity(a) != 0 {
		t.Fatalf("density should be 0")
	}
}

func TestFillInPrediction(t *testing.T) {
	// Structure: tiles (2,0) and (3,0) non-zero, everything else zero.
	// Panel 0 TRSMs on rows {2,3}; their cross product fills tile (3,2).
	nt := 4
	rk := make([][]int, nt)
	for m := range rk {
		rk[m] = make([]int, m)
	}
	rk[2][0] = 3
	rk[3][0] = 2
	a := Analyze(Ranks{N: nt, R: rk}, AllLocal)
	if !a.NonZero(2, 0) || !a.NonZero(3, 0) {
		t.Fatalf("initial non-zeros lost")
	}
	if !a.NonZero(3, 2) {
		t.Fatalf("fill-in (3,2) not predicted")
	}
	if a.NonZero(1, 0) || a.NonZero(2, 1) || a.NonZero(3, 1) {
		t.Fatalf("spurious non-zeros predicted")
	}
	if a.NbGemm(3, 2) != 1 || a.GemmAt(3, 2, 0) != 0 {
		t.Fatalf("gemm list for fill-in wrong: nb=%d", a.NbGemm(3, 2))
	}
	// The fill-in propagates: panel 2 must now TRSM row 3.
	if a.NbTrsm(2) != 1 || a.TrsmAt(2, 0) != 3 {
		t.Fatalf("fill-in must join later panels: nb=%d", a.NbTrsm(2))
	}
	// SYRK on diagonal 3 comes from panels 0 and 2.
	if a.NbSyrk(3) != 2 || a.SyrkAt(3, 0) != 0 || a.SyrkAt(3, 1) != 2 {
		t.Fatalf("syrk list wrong: %d", a.NbSyrk(3))
	}
}

func TestCascadingFillIn(t *testing.T) {
	// Arrow structure: only column 0 dense. Fill-in must cascade into the
	// whole trailing triangle (classic arrow-matrix fill).
	nt := 6
	rk := make([][]int, nt)
	for m := range rk {
		rk[m] = make([]int, m)
	}
	for m := 1; m < nt; m++ {
		rk[m][0] = 4
	}
	a := Analyze(Ranks{N: nt, R: rk}, AllLocal)
	for m := 1; m < nt; m++ {
		for n := 0; n < m; n++ {
			if !a.NonZero(m, n) {
				t.Fatalf("arrow fill-in should make (%d,%d) non-zero", m, n)
			}
		}
	}
	if FinalDensity(a) != 1 {
		t.Fatalf("arrow matrix fills completely")
	}
}

func TestTrimmedStrictlyFewerTasks(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	nt := 12
	rk := make([][]int, nt)
	for m := range rk {
		rk[m] = make([]int, m)
		for n := range rk[m] {
			if m-n <= 2 || rng.Float64() < 0.1 {
				rk[m][n] = 1 + rng.Intn(8)
			}
		}
	}
	a := Analyze(Ranks{N: nt, R: rk}, AllLocal)
	_, at, as, ag := TaskCounts(a)
	_, ft, fs, fg := TaskCounts(Full{Nt: nt})
	if at >= ft || as >= fs || ag >= fg {
		t.Fatalf("banded structure must trim tasks: trsm %d/%d syrk %d/%d gemm %d/%d",
			at, ft, as, fs, ag, fg)
	}
}

func TestDistributedAnalysisLocalLists(t *testing.T) {
	nt := 10
	rk := denseRanks(nt, 2)
	// Process owning only even (m+n) tiles.
	local := func(m, n int) bool { return (m+n)%2 == 0 }
	a := Analyze(rk, local)
	full := Analyze(rk, AllLocal)
	for m := 1; m < nt; m++ {
		for n := 0; n < m; n++ {
			// Counts (line 20) are global in both.
			if a.NbGemm(m, n) != full.NbGemm(m, n) {
				t.Fatalf("global gemm count must not depend on locality")
			}
			if local(m, n) {
				for i := 0; i < a.NbGemm(m, n); i++ {
					if a.GemmAt(m, n, i) != full.GemmAt(m, n, i) {
						t.Fatalf("local gemm list differs")
					}
				}
			}
		}
	}
	// Memory footprint of the distributed analysis must be smaller.
	if a.AnalysisBytes >= full.AnalysisBytes {
		t.Fatalf("distributed analysis should save memory: %d vs %d",
			a.AnalysisBytes, full.AnalysisBytes)
	}
}

func TestAnalysisOverheadMetering(t *testing.T) {
	a := Analyze(denseRanks(30, 3), AllLocal)
	if a.AnalysisBytes <= 0 {
		t.Fatalf("footprint not recorded")
	}
	if a.AnalysisTime < 0 {
		t.Fatalf("time not recorded")
	}
}

func TestTrsmListsSorted(t *testing.T) {
	nt := 15
	a := Analyze(randomRanks(rand.New(rand.NewSource(2)), nt, 0.3), AllLocal)
	for k := 0; k < nt; k++ {
		for i := 1; i < a.NbTrsm(k); i++ {
			if a.TrsmAt(k, i) <= a.TrsmAt(k, i-1) {
				t.Fatalf("trsm list not ascending at k=%d", k)
			}
		}
	}
	for m := 1; m < nt; m++ {
		for n := 0; n < m; n++ {
			for i := 1; i < a.NbGemm(m, n); i++ {
				if a.GemmAt(m, n, i) <= a.GemmAt(m, n, i-1) {
					t.Fatalf("gemm list not ascending at (%d,%d)", m, n)
				}
			}
		}
	}
}
