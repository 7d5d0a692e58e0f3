package core

import (
	"tlrchol/internal/flops"
	"tlrchol/internal/obs"
	"tlrchol/internal/tlr"
)

// Kernel-class indices for the per-class metric arrays.
const (
	cPotrf = iota
	cTrsm
	cSyrk
	cGemm
	// LDLᵀ task classes: the diagonal sytrf and the D-weighted variants
	// of the panel solve and trailing updates.
	cSytrf
	cTrsmD
	cSyrkD
	cGemmD
	nClass
)

var classNames = [nClass]string{"potrf", "trsm", "syrk", "gemm", "sytrf", "trsm_d", "syrk_d", "gemm_d"}

// instr bundles the metric handles one factorization records into. The
// handles are resolved from the registry once at setup; every hot-path
// record is then a handful of atomic adds into per-worker shards —
// no locks, no lookups, no allocations. Both execution paths share it:
// the sequential reference records on shard 0, the parallel path on the
// executing worker's index.
//
// The flop counters come in pairs per class: flops.eff.<class> is the
// effective count of the data-sparse kernel actually run (zero for
// no-ops on null tiles), flops.dense.<class> the cost the same update
// would have had on dense tiles. Their ratio is the paper's headline
// data-sparsity win, so Factorize reports the per-run delta of both.
type instr struct {
	reg   *obs.Registry
	tasks [nClass]*obs.Counter
	eff   [nClass]*obs.Counter
	dns   [nClass]*obs.Counter
	// rankH histograms the rank GEMM accumulations produce — the
	// post-recompression rank distribution that drives memory and the
	// cost of every downstream task.
	rankH *obs.Histogram
	// fillin counts GEMMs that turned an exactly-zero tile nonzero, the
	// structure-destroying event DAG trimming must predict conservatively.
	fillin *obs.Counter
}

func newInstr(reg *obs.Registry) *instr {
	if reg == nil {
		reg = obs.Default
	}
	in := &instr{reg: reg}
	for c := 0; c < nClass; c++ {
		in.tasks[c] = reg.Counter("tasks." + classNames[c])
		in.eff[c] = reg.Counter("flops.eff." + classNames[c])
		in.dns[c] = reg.Counter("flops.dense." + classNames[c])
	}
	in.rankH = reg.Histogram("rank.gemm.out", 0, 2, 4, 8, 16, 32, 64, 128, 256)
	in.fillin = reg.Counter("gemm.fillin")
	return in
}

// flopTotals sums the effective and dense-equivalent flop counters.
// Factorize differences two calls around the run so a shared registry
// (obs.Default) still yields per-run numbers.
func (in *instr) flopTotals() (eff, dns float64) {
	for c := 0; c < nClass; c++ {
		eff += float64(in.eff[c].Value())
		dns += float64(in.dns[c].Value())
	}
	return eff, dns
}

func (in *instr) record(class, shard int, effF, dnsF float64) {
	in.tasks[class].Add(shard, 1)
	in.eff[class].Add(shard, uint64(effF))
	in.dns[class].Add(shard, uint64(dnsF))
}

// diag records a diagonal-tile factorization (cPotrf or cSytrf): dense,
// so effective == dense-equivalent.
func (in *instr) diag(class, shard, b int, info *obs.SpanInfo) {
	f := flops.Potrf(b)
	if class == cSytrf {
		f = flops.Sytrf(b)
	}
	in.record(class, shard, f, f)
	if info != nil {
		info.RankIn, info.RankOut = int32(b), int32(b)
		info.Flops = f
	}
}

// trsm records a panel solve (cTrsm, or cTrsmD: TRSM + D⁻¹ scale)
// against tile t.
func (in *instr) trsm(class, shard int, t *tlr.Tile, info *obs.SpanInfo) {
	if class == cTrsmD {
		in.panel(class, shard, t, flops.TrsmLDLtDense, flops.TrsmLDLtLR, info)
	} else {
		in.panel(class, shard, t, flops.TrsmDense, flops.TrsmLR, info)
	}
}

// syrk records a diagonal update (cSyrk, or the D-weighted cSyrkD) from
// panel tile a.
func (in *instr) syrk(class, shard int, a *tlr.Tile, info *obs.SpanInfo) {
	if class == cSyrkD {
		in.panel(class, shard, a, flops.SyrkDDense, flops.SyrkDLR, info)
	} else {
		in.panel(class, shard, a, flops.SyrkDense, flops.SyrkLR, info)
	}
}

// panel records a TRSM or SYRK on panel tile t, whose rank the kernel
// leaves unchanged; dns and lr are the class's costs on a dense b×b
// tile and on a rank-k one.
func (in *instr) panel(class, shard int, t *tlr.Tile, dns func(b int) float64, lr func(b, k int) float64, info *obs.SpanInfo) {
	b := t.Rows
	dnsF := dns(b)
	var effF float64
	switch t.Kind {
	case tlr.Dense:
		effF = dnsF
	case tlr.LowRank:
		effF = lr(b, t.Rank())
	}
	in.record(class, shard, effF, dnsF)
	if info != nil {
		r := int32(t.Rank())
		info.RankIn, info.RankOut = r, r
		info.Flops = effF
	}
}

// gemm records the update C ← C − A·Bᵀ (cGemm) or C ← C − A·D·Bᵀ
// (cGemmD): ka, kb, kc are the input ranks (kc the written tile's rank
// before the kernel), out the tile after.
func (in *instr) gemm(class, shard, ka, kb, kc int, out *tlr.Tile, info *obs.SpanInfo) {
	b := out.Rows
	dnsF := flops.GemmDense(b)
	var effF float64
	if ka > 0 && kb > 0 {
		if class == cGemmD {
			effF = flops.GemmDLR(b, ka, kb, kc)
		} else {
			effF = flops.GemmLR(b, ka, kb, kc)
		}
		in.rankH.Observe(shard, float64(out.Rank()))
		if kc == 0 && out.Rank() > 0 {
			in.fillin.Add(shard, 1)
			if tr := obs.Active(); tr != nil {
				tr.Instant("fill_in", int32(shard), float64(out.Rank()))
			}
		}
	}
	in.record(class, shard, effF, dnsF)
	if info != nil {
		info.RankIn, info.RankOut = int32(kc), int32(out.Rank())
		info.Flops = effF
	}
}

// spanInfo allocates a task's span annotation, pre-filled with the tile
// coordinates, only when a tracer is observing the run — the untraced
// path keeps Task.Info nil and allocation-free.
func spanInfo(traced bool, k, m, n int) *obs.SpanInfo {
	if !traced {
		return nil
	}
	return &obs.SpanInfo{K: int32(k), M: int32(m), N: int32(n)}
}
