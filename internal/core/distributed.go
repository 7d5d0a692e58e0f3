package core

import (
	"fmt"
	"time"

	"tlrchol/internal/cluster"
	"tlrchol/internal/dist"
	"tlrchol/internal/obs"
	"tlrchol/internal/tilemat"
	"tlrchol/internal/tlr"
	"tlrchol/internal/trim"
)

// DistOptions configures a distributed factorization on the virtual
// cluster (package cluster): the same numerical TLR Cholesky as
// Factorize, executed across Nodes private address spaces under the
// given Remap with explicit message passing.
type DistOptions struct {
	// Tol / MaxRank / Trim as in Options.
	Tol     float64
	MaxRank int
	Trim    bool
	// Nodes is the virtual-node count; must equal Remap.Size().
	Nodes int
	// WorkersPerNode sizes each node's worker pool (≤ 0: 1).
	WorkersPerNode int
	// Remap pairs the data distribution with the execution
	// distribution (nil Exec: owner-computes).
	Remap dist.Remap
	// Tracer, if non-nil, receives compute spans per node worker plus
	// comm spans on one dedicated track per node.
	Tracer *obs.Tracer
	// Comm, if non-nil, accumulates per-node message/byte counters.
	Comm *obs.CommTracker
	// Metrics selects the kernel-counter registry (nil: obs.Default).
	Metrics *obs.Registry
}

// DistReport describes a distributed factorization.
type DistReport struct {
	// Potrf, Trsm, Syrk, Gemm count the task instances (after trimming).
	Potrf, Trsm, Syrk, Gemm int
	// Elapsed is the factorization wall time; Analysis the trimming
	// overhead.
	Elapsed, Analysis time.Duration
	// Cluster carries the engine statistics, including the comm
	// snapshot when DistOptions.Comm was set.
	Cluster cluster.Stats
	// EffFlops / DenseFlops as in Report.
	EffFlops, DenseFlops float64
	// TasksTrimmed counts full-DAG task instances never created thanks
	// to trimming (zero when Trim is off).
	TasksTrimmed int
	// FinalDensity is the off-diagonal density of the factor.
	FinalDensity float64
}

// FactorizeDistributed computes the TLR Cholesky A = L·Lᵀ on the
// virtual cluster: tiles are scattered to their owner nodes, the
// (possibly trimmed) DAG executes at the Remap's executing ranks with
// tiles moving only as messages, and the factor is gathered back into
// m. The result is tile-for-tile identical to the shared-memory
// Factorize: every tile's write chain is serialized in the same order
// on a single node, and the kernels are deterministic.
func FactorizeDistributed(m *tilemat.Matrix, opts DistOptions) (DistReport, error) {
	var rep DistReport
	if opts.Tol <= 0 {
		return rep, fmt.Errorf("core: DistOptions.Tol must be positive, got %g", opts.Tol)
	}
	var structure trim.Structure
	if opts.Trim {
		a := trim.Analyze(rankArray{m}, trim.AllLocal)
		rep.Analysis = a.AnalysisTime
		structure = a
	} else {
		structure = trim.Full{Nt: m.NT}
	}
	rep.Potrf, rep.Trsm, rep.Syrk, rep.Gemm, rep.TasksTrimmed = taskCounts(structure)
	if opts.Metrics == nil {
		opts.Metrics = obs.Default
	}
	in := newInstr(opts.Metrics)
	effBefore, dnsBefore := in.flopTotals()

	g := buildDistGraph(structure, opts, in)
	seed := make(map[cluster.TileID]*tlr.Tile, m.NT*(m.NT+1)/2)
	for i := 0; i < m.NT; i++ {
		for j := 0; j <= i; j++ {
			seed[cluster.TileID{M: i, N: j}] = m.At(i, j)
		}
	}

	start := time.Now()
	st, out, err := g.Run(seed, cluster.Config{
		Nodes: opts.Nodes, WorkersPerNode: opts.WorkersPerNode,
		Remap: opts.Remap, Tracer: opts.Tracer, Comm: opts.Comm,
	})
	rep.Elapsed = time.Since(start)
	rep.Cluster = st
	effAfter, dnsAfter := in.flopTotals()
	rep.EffFlops, rep.DenseFlops = effAfter-effBefore, dnsAfter-dnsBefore
	if err != nil {
		return rep, err
	}
	for id, t := range out {
		m.Set(id.M, id.N, t)
	}
	rep.FinalDensity = m.Stats().Density
	return rep, nil
}

// buildDistGraph unrolls the Cholesky DAG for the cluster engine from
// the same walk as BuildGraph — same task set, edges, priorities and,
// crucially, per-tile write-chain order — so the distributed execution
// reproduces the shared-memory values bit for bit. Task bodies read and
// write through the executing node's private store (Ctx) instead of the
// shared tilemat.
func buildDistGraph(s trim.Structure, opts DistOptions, in *instr) *cluster.Graph {
	f := &forms[tilemat.FormCholesky]
	g := cluster.NewGraph()
	traced := opts.Tracer != nil
	cfg := tlr.GemmConfig{Tol: opts.Tol, MaxRank: opts.MaxRank}
	trim.Walk(s, func(t trim.Task, prev *cluster.Task, hasPrev bool) *cluster.Task {
		task := g.NewTask(f.label(t), t.Prio, cluster.TileID{M: t.M, N: t.N}, nil)
		task.Info = spanInfo(traced, t.K, t.M, t.N)
		task.Run = func(c *cluster.Ctx) error {
			return f.exec(c, t, cfg, in, c.Shard(), task.Info)
		}
		if hasPrev {
			g.AddDep(prev, task)
		}
		return task
	}, g.AddDep)
	return g
}
