package verify

import (
	"math/rand"
	"testing"

	"tlrchol/internal/core"
	"tlrchol/internal/dense"
	"tlrchol/internal/ptg"
	"tlrchol/internal/tilemat"
	"tlrchol/internal/trim"
)

// choleskyProgram is the structural (nil-body) PTG description of the
// trimmed tile Cholesky, mirroring the driver used in package ptg's
// tests: spaces come from the trim.Structure.
func choleskyProgram(s trim.Structure) ptg.Program {
	tile := func(i, j int) ptg.DataRef { return ptg.DataRef{Name: "A", I: i, J: j} }
	nt := s.NT()
	return ptg.Program{Classes: []ptg.Class{
		{
			Name: "potrf",
			Space: func() []ptg.Params {
				out := make([]ptg.Params, nt)
				for k := range out {
					out[k] = ptg.Params{k, 0, 0}
				}
				return out
			},
			Writes: func(p ptg.Params) []ptg.DataRef { return []ptg.DataRef{tile(p[0], p[0])} },
		},
		{
			Name: "trsm",
			Space: func() []ptg.Params {
				var out []ptg.Params
				for k := 0; k < nt; k++ {
					for i := 0; i < s.NbTrsm(k); i++ {
						out = append(out, ptg.Params{k, s.TrsmAt(k, i), 0})
					}
				}
				return out
			},
			Reads:  func(p ptg.Params) []ptg.DataRef { return []ptg.DataRef{tile(p[0], p[0])} },
			Writes: func(p ptg.Params) []ptg.DataRef { return []ptg.DataRef{tile(p[1], p[0])} },
		},
		{
			Name: "syrk",
			Space: func() []ptg.Params {
				var out []ptg.Params
				for k := 0; k < nt; k++ {
					for i := 0; i < s.NbTrsm(k); i++ {
						out = append(out, ptg.Params{k, s.TrsmAt(k, i), 0})
					}
				}
				return out
			},
			Reads:  func(p ptg.Params) []ptg.DataRef { return []ptg.DataRef{tile(p[1], p[0])} },
			Writes: func(p ptg.Params) []ptg.DataRef { return []ptg.DataRef{tile(p[1], p[1])} },
		},
		{
			Name: "gemm",
			Space: func() []ptg.Params {
				var out []ptg.Params
				for k := 0; k < nt; k++ {
					for i := 0; i < s.NbTrsm(k); i++ {
						for j := 0; j < i; j++ {
							out = append(out, ptg.Params{k, s.TrsmAt(k, i), s.TrsmAt(k, j)})
						}
					}
				}
				return out
			},
			Reads: func(p ptg.Params) []ptg.DataRef {
				return []ptg.DataRef{tile(p[1], p[0]), tile(p[2], p[0])}
			},
			Writes: func(p ptg.Params) []ptg.DataRef { return []ptg.DataRef{tile(p[1], p[2])} },
		},
	}}
}

func panelOrder(class string, p ptg.Params) int64 {
	k := int64(p[0])
	switch class {
	case "potrf":
		return 4 * k
	case "trsm":
		return 4*k + 1
	default:
		return 4*k + 2
	}
}

// TestVerifyPTGCholesky proves the full front-end pipeline clean: the
// program passes the program checks and both unrolling orders yield
// acyclic, hazard-complete graphs — over trimmed and untrimmed
// structures alike.
func TestVerifyPTGCholesky(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	structures := map[string]trim.Structure{
		"full":    trim.Full{Nt: 8},
		"trimmed": trim.Analyze(randomRanks(rng, 10, 0.4), trim.AllLocal),
	}
	for name, s := range structures {
		pr := choleskyProgram(s)
		if err := CheckProgram(pr, ProgramSpec{NT: s.NT()}).Err(); err != nil {
			t.Fatalf("%s: program rejected: %v", name, err)
		}
		g, err := pr.Instantiate()
		if err != nil {
			t.Fatal(err)
		}
		if err := CheckGraph(g).Err(); err != nil {
			t.Fatalf("%s: class-order graph rejected: %v", name, err)
		}
		gi, err := pr.Interleaved(panelOrder)
		if err != nil {
			t.Fatal(err)
		}
		if err := CheckGraph(gi).Err(); err != nil {
			t.Fatalf("%s: interleaved graph rejected: %v", name, err)
		}
	}
}

// TestVerifyCoreGraphs proves the factorization graphs of
// package core hazard-complete via their declared tile accesses — the
// check that would have caught a forgotten AddDep the day it was
// written.
func TestVerifyCoreGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := dense.RandomSPD(rng, 192)
	m, _ := tilemat.FromDense(a, 32, 1e-8, 0)
	for _, tc := range []struct {
		name string
		form tilemat.Form
		opts core.Options
		trim bool
	}{
		{name: "full", opts: core.Options{Tol: 1e-8}},
		{name: "trimmed", opts: core.Options{Tol: 1e-8}, trim: true},
		{name: "nested", opts: core.Options{Tol: 1e-8, NestedDiag: 8}},
		{name: "ldlt", form: tilemat.FormLDLt, opts: core.Options{Tol: 1e-8}, trim: true},
	} {
		s := core.Structure(m, tc.trim)
		g := core.BuildGraph(m, tc.form, s, tc.opts)
		fs := CheckGraph(g)
		if err := fs.Err(); err != nil {
			t.Fatalf("%s: core graph rejected: %v", tc.name, err)
		}
		for _, f := range fs {
			t.Logf("%s: %v", tc.name, f)
		}
	}
}

// TestVerifyTrimPipeline runs the trim pass over the analysis the real
// driver would use for a sparse operator.
func TestVerifyTrimPipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	r := randomRanks(rng, 12, 0.35)
	a := trim.Analyze(r, trim.AllLocal)
	if err := CheckTrim(a, r).Err(); err != nil {
		t.Fatalf("driver analysis rejected: %v", err)
	}
	// The graph built over the verified structure is itself clean.
	pr := choleskyProgram(a)
	g, err := pr.Interleaved(panelOrder)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckGraph(g).Err(); err != nil {
		t.Fatalf("graph over verified structure rejected: %v", err)
	}
}
