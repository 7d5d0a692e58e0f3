package sim

import (
	"container/heap"
	"fmt"
	"math"
	"math/bits"
	"time"

	"tlrchol/internal/dist"
	"tlrchol/internal/flops"
	"tlrchol/internal/obs"
	"tlrchol/internal/runtime"
	"tlrchol/internal/trim"
)

// Config selects the cluster, its size and the data/execution
// distributions for one simulated run.
type Config struct {
	Machine Machine
	// Nodes is the number of processes (one multithreaded process per
	// node, the PaRSEC deployment of the paper).
	Nodes int
	// Remap pairs the data distribution (ownership) with the execution
	// distribution; a nil Exec means owner-computes.
	Remap dist.Remap
	// CollectTrace records per-task execution records (process = worker)
	// in Result.Trace for Gantt/utilization analysis.
	CollectTrace bool
	// ARABlock, when positive, models compression with the blocked
	// randomized (ARA) chain at this sampling block size instead of the
	// deterministic QRCP chain (CompressionTime only; the factorization
	// cost model is compression-agnostic).
	ARABlock int
}

// Result reports one simulated factorization.
type Result struct {
	// Makespan is the simulated time-to-solution in seconds.
	Makespan float64
	// Busy is per-process core-busy time (kernel + runtime overhead).
	Busy []float64
	// CommVolume is total bytes moved between processes; Msgs the
	// message count; ShipVolume the remap ship-in/ship-back bytes.
	CommVolume, ShipVolume float64
	Msgs                   int
	// Tasks and NullTasks count scheduled task instances; null tasks do
	// no flops but still cost runtime overhead (the trimming target).
	Tasks, NullTasks int
	// Potrf/Trsm/Syrk/Gemm break Tasks down by class.
	Potrf, Trsm, Syrk, Gemm int
	// CriticalPathTime is the kernel-only sequential chain of Section
	// VIII-G (the optimistic roofline bound).
	CriticalPathTime float64
	// DAGCriticalPath is the longest cost-weighted path through the
	// actual task DAG (no communication), a tighter lower bound.
	DAGCriticalPath float64
	// MemBytes is the per-process tile storage (owner side);
	// TempBytes the remap temporaries held at executor processes.
	MemBytes, TempBytes []int64
	// Trace holds per-task records when Config.CollectTrace was set;
	// Worker is the simulated process id and times are simulated time.
	Trace []runtime.TaskRecord
	// PathNodes is the executed DAG with its simulated schedule, in the
	// form obs.CriticalPath analyzes — the same critical-path attribution
	// report as real executions, over simulated time. Filled when
	// Config.CollectTrace was set.
	PathNodes []obs.PathNode
}

// LoadImbalance returns max/avg of per-process busy time.
func (r Result) LoadImbalance() float64 {
	var max, sum float64
	for _, b := range r.Busy {
		if b > max {
			max = b
		}
		sum += b
	}
	if sum == 0 {
		return 1
	}
	return max / (sum / float64(len(r.Busy)))
}

// Efficiency returns the roofline efficiency of Section VIII-G: the
// ratio of the kernel-only critical path to the simulated makespan.
func (r Result) Efficiency() float64 {
	if r.Makespan == 0 {
		return 1
	}
	return r.CriticalPathTime / r.Makespan
}

// kindNames labels the task classes in traces.
var kindNames = [...]string{trim.Diag: "potrf", trim.Trsm: "trsm", trim.Syrk: "syrk", trim.Gemm: "gemm"}

type simTask struct {
	kind    trim.Class
	k, m, n int32
	deps    int32
	proc    int32
	null    bool
	cost    float64
	prio    int64
	succs   []int32
}

// Validate reports configuration errors as usable messages instead of
// letting the simulation panic or silently misattribute work.
func (c Config) Validate() error {
	if c.Nodes <= 0 {
		return fmt.Errorf("sim: Nodes must be positive, got %d", c.Nodes)
	}
	if c.Remap.Data == nil {
		return fmt.Errorf("sim: Remap.Data distribution is nil")
	}
	if c.Remap.Size() != c.Nodes {
		return fmt.Errorf("sim: Nodes=%d but distribution %q has %d processes",
			c.Nodes, c.Remap.Data.Name(), c.Remap.Size())
	}
	if c.Machine.CoresPerNode <= 0 {
		return fmt.Errorf("sim: Machine.CoresPerNode must be positive, got %d", c.Machine.CoresPerNode)
	}
	return nil
}

// Run simulates one TLR Cholesky factorization.
func Run(w Workload, cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if w.NT <= 0 || w.B <= 0 {
		return Result{}, fmt.Errorf("sim: workload has NT=%d B=%d, both must be positive", w.NT, w.B)
	}
	tasks, res := buildDAG(w, cfg)
	runEventLoop(tasks, w, cfg, &res)
	res.CriticalPathTime = CriticalPathTime(w, cfg.Machine)
	accountMemory(w, cfg, &res)
	return res, nil
}

// buildDAG materializes the (possibly trimmed) task DAG of trim.Walk —
// the one the shared-memory runtime and the virtual cluster execute —
// with simulated costs and executing processes.
func buildDAG(w Workload, cfg Config) ([]simTask, Result) {
	nt := w.NT
	b := w.B
	mch := cfg.Machine
	var res Result
	tasks := make([]simTask, 0, nt*4)
	addDep := func(pred, succ int32) {
		tasks[pred].succs = append(tasks[pred].succs, succ)
		tasks[succ].deps++
	}

	// shipCharged[tile] marks that the tile's initial content has been
	// charged (ship-in when executor differs from owner).
	shipCharged := make(map[int64]bool)
	shipIn := func(m, n int, id int32) {
		key := int64(m)*int64(nt) + int64(n)
		if shipCharged[key] {
			return
		}
		shipCharged[key] = true
		owner := int32(cfg.Remap.OwnerRankOf(m, n))
		if owner == tasks[id].proc {
			return
		}
		var bytes float64
		r := w.initRank(m, n)
		if m == n {
			bytes = 8 * float64(b) * float64(b)
		} else if r > 0 {
			bytes = 16 * float64(b) * float64(r)
		} else {
			return // fill-in tiles materialize at the executor: no ship-in
		}
		tasks[id].cost += mch.XferTime(bytes)
		res.ShipVolume += 2 * bytes // in now, back at the end
	}

	// seconds costs a kernel: the leading tasks of each panel feed the
	// critical path and run node-parallel (the nested parallelism
	// inherited from Lorapo); trailing tasks run as single-core tasks.
	seconds := func(t trim.Task, f float64) float64 {
		if t.M-t.K <= 2 {
			return mch.NestedSeconds(f)
		}
		return mch.Seconds(f)
	}
	pr := w.workRank
	trim.Walk(w.S, func(t trim.Task, prev int32, hasPrev bool) int32 {
		st := simTask{
			kind: t.Class, k: int32(t.K), m: int32(t.M), n: int32(t.N),
			proc: int32(cfg.Remap.ExecRankOf(t.M, t.N)),
			prio: t.Prio,
		}
		ship := true
		switch t.Class {
		case trim.Diag:
			st.cost = mch.NestedSeconds(flops.Potrf(b))
			res.Potrf++
		case trim.Trsm:
			r := pr(t.M, t.K)
			if st.null = r == 0; !st.null {
				st.cost = seconds(t, flops.TrsmLR(b, r))
			}
			res.Trsm++
		case trim.Syrk:
			r := pr(t.M, t.K)
			if st.null = r == 0; !st.null {
				st.cost = seconds(t, flops.SyrkLR(b, r))
			}
			res.Syrk++
		case trim.Gemm:
			ka, kb := pr(t.M, t.K), pr(t.N, t.K)
			if st.null = ka == 0 || kb == 0; !st.null {
				st.cost = seconds(t, flops.GemmLR(b, ka, kb, pr(t.M, t.N)))
			}
			ship = !st.null || w.initRank(t.M, t.N) > 0
			res.Gemm++
		}
		if st.null {
			res.NullTasks++
		}
		id := int32(len(tasks))
		tasks = append(tasks, st)
		if hasPrev {
			addDep(prev, id)
		}
		if ship {
			shipIn(t.M, t.N, id)
		}
		return id
	}, addDep)
	res.Tasks = len(tasks)
	return tasks, res
}

// event is one entry of the discrete-event queue.
type event struct {
	t    float64
	seq  int64
	proc int32
	// finish: the task that completed. arrive: the tasks whose remote
	// dependency is satisfied by this message.
	finish  int32
	arrives []int32
}

type eventQueue []event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].t != q[j].t {
		return q[i].t < q[j].t
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x interface{}) { *q = append(*q, x.(event)) }
func (q *eventQueue) Pop() interface{} {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}

// readyHeap orders ready tasks by priority.
type readyHeap struct {
	prio  []int64
	seq   []int64
	tasks []int32
}

func (h readyHeap) Len() int { return len(h.tasks) }
func (h readyHeap) Less(i, j int) bool {
	if h.prio[i] != h.prio[j] {
		return h.prio[i] > h.prio[j]
	}
	return h.seq[i] < h.seq[j]
}
func (h readyHeap) Swap(i, j int) {
	h.prio[i], h.prio[j] = h.prio[j], h.prio[i]
	h.seq[i], h.seq[j] = h.seq[j], h.seq[i]
	h.tasks[i], h.tasks[j] = h.tasks[j], h.tasks[i]
}
func (h *readyHeap) Push(x interface{}) { panic("use pushTask") }
func (h *readyHeap) Pop() interface{}   { panic("use popTask") }

func (h *readyHeap) pushTask(id int32, prio, seq int64) {
	h.prio = append(h.prio, prio)
	h.seq = append(h.seq, seq)
	h.tasks = append(h.tasks, id)
	heap.Fix(h, len(h.tasks)-1)
}

func (h *readyHeap) popTask() int32 {
	id := h.tasks[0]
	n := len(h.tasks) - 1
	h.Swap(0, n)
	h.prio = h.prio[:n]
	h.seq = h.seq[:n]
	h.tasks = h.tasks[:n]
	if n > 0 {
		heap.Fix(h, 0)
	}
	return id
}

// runEventLoop plays the DAG on the simulated machine.
func runEventLoop(tasks []simTask, w Workload, cfg Config, res *Result) {
	nprocs := cfg.Nodes
	cores := cfg.Machine.CoresPerNode
	free := make([]int, nprocs)
	for i := range free {
		free[i] = cores
	}
	ready := make([]readyHeap, nprocs)
	res.Busy = make([]float64, nprocs)

	var q eventQueue
	var seq int64
	push := func(e event) {
		e.seq = seq
		seq++
		heap.Push(&q, e)
	}

	// rtFree models the per-process runtime/progress thread: every task
	// activation (dependency resolution, scheduling, communication
	// activation) serializes through it for TaskOverhead seconds. This
	// is the resource DAG trimming relieves: null tasks do no flops but
	// still consume dispatcher throughput.
	rtFree := make([]float64, nprocs)
	overhead := cfg.Machine.OverheadAt(cfg.Nodes)
	var startAt []float64
	if cfg.CollectTrace {
		startAt = make([]float64, len(tasks))
	}
	schedule := func(p int32, now float64) {
		for free[p] > 0 && ready[p].Len() > 0 {
			id := ready[p].popTask()
			start := now
			if rtFree[p] > start {
				start = rtFree[p]
			}
			rtFree[p] = start + overhead
			free[p]--
			res.Busy[p] += overhead + tasks[id].cost
			if cfg.CollectTrace {
				startAt[id] = start + overhead
				tk := &tasks[id]
				res.Trace = append(res.Trace, runtime.TaskRecord{
					Label:    fmt.Sprintf("%s(%d,%d,%d)", kindNames[tk.kind], tk.k, tk.m, tk.n),
					Worker:   int(p),
					Start:    time.Duration((start + overhead) * 1e9),
					Duration: time.Duration(tk.cost * 1e9),
				})
			}
			push(event{t: start + overhead + tasks[id].cost, proc: p, finish: id})
		}
	}
	makeReady := func(id int32, now float64) {
		t := &tasks[id]
		ready[t.proc].pushTask(id, t.prio, seq)
		seq++
	}

	for i := range tasks {
		if tasks[i].deps == 0 {
			makeReady(int32(i), 0)
		}
	}
	for p := int32(0); p < int32(nprocs); p++ {
		schedule(p, 0)
	}

	var makespan float64
	// depth(i) is the binomial broadcast-tree delay multiplier of the
	// i-th remote destination.
	depth := func(i int) float64 { return float64(bits.Len(uint(i + 1))) }

	for q.Len() > 0 {
		e := heap.Pop(&q).(event)
		if e.t > makespan {
			makespan = e.t
		}
		if e.arrives != nil {
			for _, id := range e.arrives {
				tasks[id].deps--
				if tasks[id].deps == 0 {
					makeReady(id, e.t)
				}
			}
			schedule(e.proc, e.t)
			continue
		}
		// Task finish: release successors. Local ones immediately; remote
		// ones through one message per destination process, staged along a
		// binomial broadcast tree.
		ft := &tasks[e.finish]
		free[e.proc]++
		var remote map[int32][]int32
		nDest := 0
		for _, s := range ft.succs {
			sp := tasks[s].proc
			if sp == e.proc {
				tasks[s].deps--
				if tasks[s].deps == 0 {
					makeReady(s, e.t)
				}
				continue
			}
			if remote == nil {
				remote = make(map[int32][]int32, 4)
			}
			if _, ok := remote[sp]; !ok {
				nDest++
			}
			remote[sp] = append(remote[sp], s)
		}
		if remote != nil {
			// Segmented binomial broadcast: the payload is pipelined, so
			// every receiver pays the full transfer once plus one latency
			// per tree level.
			bytes := w.TileBytes(int(ft.m), int(ft.n))
			xfer := bytes / cfg.Machine.NetBandwidth
			i := 0
			// Deterministic destination order: ascending process id.
			for sp := int32(0); sp < int32(nprocs) && i < nDest; sp++ {
				succs, ok := remote[sp]
				if !ok {
					continue
				}
				delay := xfer + depth(i)*cfg.Machine.NetLatency
				push(event{t: e.t + delay, proc: sp, arrives: succs})
				res.Msgs++
				res.CommVolume += bytes
				i++
			}
		}
		schedule(e.proc, e.t)
	}
	res.Makespan = makespan
	res.DAGCriticalPath = dagCriticalPath(tasks)
	if cfg.CollectTrace {
		// Export the executed DAG with its simulated schedule so the same
		// obs.CriticalPath attribution runs on simulations as on real runs.
		nodes := make([]obs.PathNode, len(tasks))
		for i := range tasks {
			tk := &tasks[i]
			nodes[i] = obs.PathNode{
				Label:  fmt.Sprintf("%s(%d,%d,%d)", kindNames[tk.kind], tk.k, tk.m, tk.n),
				Worker: tk.proc,
				Start:  time.Duration(startAt[i] * 1e9),
				Finish: time.Duration((startAt[i] + tk.cost) * 1e9),
			}
		}
		for i := range tasks {
			for _, s := range tasks[i].succs {
				nodes[s].Preds = append(nodes[s].Preds, int32(i))
			}
		}
		res.PathNodes = nodes
	}
}

// dagCriticalPath is the longest cost-weighted path; construction order
// is topological so a single forward sweep suffices.
func dagCriticalPath(tasks []simTask) float64 {
	in := make([]float64, len(tasks))
	var best float64
	for i := range tasks {
		c := in[i] + tasks[i].cost
		if c > best {
			best = c
		}
		for _, s := range tasks[i].succs {
			if c > in[s] {
				in[s] = c
			}
		}
	}
	return best
}

// CriticalPathTime is the optimistic roofline bound of Section VIII-G:
// the sequential kernel chain POTRF(k) → TRSM(k,k+1) → SYRK(k+1,k) →
// POTRF(k+1), kernels only, no communication, no overhead.
func CriticalPathTime(w Workload, m Machine) float64 {
	var t float64
	for k := 0; k < w.NT; k++ {
		t += m.NestedSeconds(flops.Potrf(w.B))
		if k+1 < w.NT {
			if r := w.WorkRank(k+1, k); r > 0 {
				t += m.NestedSeconds(flops.TrsmLR(w.B, r)) + m.NestedSeconds(flops.SyrkLR(w.B, r))
			}
		}
	}
	return t
}

// CompressionTime estimates the (embarrassingly parallel) matrix
// generation + compression phase of Fig 11: each process generates and
// compresses its own tiles on all its cores. cfg.ARABlock switches the
// per-tile cost from the deterministic QRCP chain to blocked
// randomized sampling.
func CompressionTime(w Workload, cfg Config) float64 {
	compress := flops.CompressQRCP
	if cfg.ARABlock > 0 {
		compress = func(b, k int) float64 { return flops.CompressARA(b, k, cfg.ARABlock) }
	}
	per := make([]float64, cfg.Nodes)
	for m := 0; m < w.NT; m++ {
		for n := 0; n <= m; n++ {
			owner := cfg.Remap.OwnerRankOf(m, n)
			c := flops.GenerateTile(w.B)
			if m > n {
				r := w.initRank(m, n)
				if r == 0 {
					// Zero-rank tile. Under trimming (Section VI) Algorithm 1
					// screens it out before generation: it is never assembled
					// or compressed, so it costs nothing — consistent with
					// trim.Structure, which creates no tasks for it either.
					// Untrimmed runs still generate it and pay a compression
					// pass that discovers the emptiness.
					if w.Trimmed {
						continue
					}
					c += compress(w.B, 1)
				} else {
					c += compress(w.B, r)
				}
			}
			per[owner] += c / (cfg.Machine.GFlopsPerCore * 1e9)
		}
	}
	var max float64
	for _, p := range per {
		max = math.Max(max, p/float64(cfg.Machine.CoresPerNode))
	}
	return max
}

// accountMemory fills the per-process memory fields: owner-side tile
// storage at working ranks, and executor-side temporaries for tiles
// whose execution was remapped away from their owner.
func accountMemory(w Workload, cfg Config, res *Result) {
	res.MemBytes = make([]int64, cfg.Nodes)
	res.TempBytes = make([]int64, cfg.Nodes)
	for m := 0; m < w.NT; m++ {
		for n := 0; n <= m; n++ {
			var bytes int64
			if m == n {
				bytes = int64(8 * w.B * w.B)
			} else if r := w.WorkRank(m, n); r > 0 {
				bytes = int64(16 * w.B * r)
			} else {
				continue
			}
			owner := cfg.Remap.OwnerRankOf(m, n)
			res.MemBytes[owner] += bytes
			if exec := cfg.Remap.ExecRankOf(m, n); exec != owner {
				res.TempBytes[exec] += bytes
			}
		}
	}
}
