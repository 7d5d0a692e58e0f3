package core

import (
	"fmt"

	"tlrchol/internal/dense"
	"tlrchol/internal/obs"
	"tlrchol/internal/runtime"
	"tlrchol/internal/tilemat"
	"tlrchol/internal/tlr"
	"tlrchol/internal/trim"
)

// factorForm is the kernel table of one factorization form: all that
// differs between TLR Cholesky and TLR LDLᵀ. The task graph, trimming,
// priorities and edge pattern are shared (trim.Walk); the LDLᵀ kernels
// additionally read the factored diagonal tile in every update.
type factorForm struct {
	// diagName names the diagonal task class in task labels.
	diagName string
	// class maps each task class to its instrumentation class.
	class [4]int
	// readsDiag is set when SYRK and GEMM read the factored diagonal
	// tile (k,k), which then appears in their hazard declarations.
	readsDiag bool
	// nestable is set when the diagonal kernel has a nested sub-DAG
	// (addNestedPotrf decomposes POTRF only).
	nestable bool
	diag     func(a *dense.Matrix) error
	trsm     func(d *dense.Matrix, a *tlr.Tile)
	syrk     func(a *tlr.Tile, d, c *dense.Matrix)
	gemm     func(a, b *tlr.Tile, d *dense.Matrix, c *tlr.Tile, cfg tlr.GemmConfig) *tlr.Tile
}

var forms = [...]factorForm{
	tilemat.FormCholesky: {
		diagName: "potrf",
		class:    [4]int{cPotrf, cTrsm, cSyrk, cGemm},
		nestable: true,
		diag:     dense.Potrf,
		trsm:     tlr.Trsm,
		syrk:     func(a *tlr.Tile, _, c *dense.Matrix) { tlr.Syrk(a, c) },
		gemm: func(a, b *tlr.Tile, _ *dense.Matrix, c *tlr.Tile, cfg tlr.GemmConfig) *tlr.Tile {
			return tlr.Gemm(a, b, c, cfg)
		},
	},
	tilemat.FormLDLt: {
		diagName:  "sytrf",
		class:     [4]int{cSytrf, cTrsmD, cSyrkD, cGemmD},
		readsDiag: true,
		diag:      dense.Ldlt,
		trsm:      tlr.TrsmLDLt,
		syrk:      tlr.SyrkLDLt,
		gemm:      tlr.GemmLDLt,
	},
}

// label names task t the way every execution path reports it.
func (f *factorForm) label(t trim.Task) string {
	switch t.Class {
	case trim.Diag:
		return fmt.Sprintf("%s(%d)", f.diagName, t.K)
	case trim.Trsm:
		return fmt.Sprintf("trsm(%d,%d)", t.K, t.M)
	case trim.Syrk:
		return fmt.Sprintf("syrk(%d,%d)", t.K, t.M)
	}
	return fmt.Sprintf("gemm(%d,%d,%d)", t.K, t.M, t.N)
}

// tileKey names tile (m,n) in declared task accesses.
type tileKey struct{ m, n int }

// accesses declares the tiles task t reads and writes, for the hazard
// replay of package verify.
func (f *factorForm) accesses(t trim.Task) []runtime.Access {
	acc := make([]runtime.Access, 0, 4)
	switch t.Class {
	case trim.Trsm:
		acc = append(acc, runtime.R(tileKey{t.K, t.K}))
	case trim.Syrk, trim.Gemm:
		acc = append(acc, runtime.R(tileKey{t.M, t.K}))
		if t.Class == trim.Gemm {
			acc = append(acc, runtime.R(tileKey{t.N, t.K}))
		}
		if f.readsDiag {
			acc = append(acc, runtime.R(tileKey{t.K, t.K}))
		}
	}
	return append(acc, runtime.W(tileKey{t.M, t.N}))
}

// tileStore is where a task body finds its tiles: the shared tile
// matrix, or a virtual-cluster node's private store (*cluster.Ctx).
type tileStore interface {
	Tile(m, n int) *tlr.Tile
	SetTile(m, n int, t *tlr.Tile)
}

// sharedTiles is the tileStore of the shared tile matrix.
type sharedTiles struct{ m *tilemat.Matrix }

func (s sharedTiles) Tile(m, n int) *tlr.Tile       { return s.m.At(m, n) }
func (s sharedTiles) SetTile(m, n int, t *tlr.Tile) { s.m.Set(m, n, t) }

// exec runs task t on the tiles of ts and records it into in on the
// given shard, filling info (nil-safe). Only the diagonal kernel fails.
func (f *factorForm) exec(ts tileStore, t trim.Task, cfg tlr.GemmConfig, in *instr, shard int, info *obs.SpanInfo) error {
	class := f.class[t.Class]
	if t.Class == trim.Diag {
		d := ts.Tile(t.K, t.K).D
		if err := f.diag(d); err != nil {
			return err
		}
		in.diag(class, shard, d.Rows, info)
		return nil
	}
	a := ts.Tile(t.M, t.K)
	var d *dense.Matrix
	if t.Class == trim.Trsm || f.readsDiag {
		d = ts.Tile(t.K, t.K).D
	}
	switch t.Class {
	case trim.Trsm:
		f.trsm(d, a)
		in.trsm(class, shard, a, info)
	case trim.Syrk:
		f.syrk(a, d, ts.Tile(t.M, t.M).D)
		in.syrk(class, shard, a, info)
	case trim.Gemm:
		b, c := ts.Tile(t.N, t.K), ts.Tile(t.M, t.N)
		ka, kb, kc := a.Rank(), b.Rank(), c.Rank()
		out := f.gemm(a, b, d, c, cfg)
		ts.SetTile(t.M, t.N, out)
		in.gemm(class, shard, ka, kb, kc, out, info)
	}
	return nil
}
