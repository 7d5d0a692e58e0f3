package trim

// Class is a task class of the tile Cholesky (or LDLᵀ) DAG.
type Class uint8

const (
	// Diag factors diagonal tile (K,K): POTRF, or SYTRF for LDLᵀ.
	Diag Class = iota
	// Trsm solves panel tile (M,K) against the factored diagonal.
	Trsm
	// Syrk updates diagonal tile (M,M) from panel tile (M,K).
	Syrk
	// Gemm updates tile (M,N) from panel tiles (M,K) and (N,K).
	Gemm
)

// Task is one task instance of the DAG: its class, its panel K, the
// tile (M,N) it writes and its scheduling priority (larger runs first).
type Task struct {
	Class   Class
	K, M, N int
	Prio    int64
}

// Walk unrolls the tile DAG over the execution space s. It is the one
// statement of the task set, dependency pattern and priorities that
// every executor shares — the shared-memory runtime, the virtual
// cluster, the discrete-event simulator — so they differ only in their
// task bodies and costs.
//
// Tasks are created in loop order: for each panel k the Diag task,
// then for each TRSM row m of the panel (ascending) TRSM(k,m),
// SYRK(k,m) and GEMM(k,m,n) for every earlier TRSM row n of the panel.
// That order is a topological order of the DAG. The edges are:
//
//   - every tile's writes form one chain in creation order, so each
//     task depends on the previous writer of the tile it writes;
//   - Diag(k) → TRSM(k,m);
//   - TRSM(k,m) → SYRK(k,m) and TRSM(k,m), TRSM(k,n) → GEMM(k,m,n).
//
// Priorities drive the critical path Diag(k) → TRSM(k,k+1) →
// SYRK(k,k+1) → Diag(k+1) ahead of the trailing updates.
//
// newTask creates a task and returns its handle. For a Diag task, prev
// is the previous writer of tile (K,K) when hasPrev is set, and newTask
// must order the new task after it: Walk adds no edge into a Diag task,
// so an executor may expand the diagonal factorization into a sub-DAG
// gated on prev. For the other classes hasPrev is false and Walk adds
// every edge through addDep, in a fixed order.
func Walk[T any](s Structure, newTask func(t Task, prev T, hasPrev bool) T, addDep func(pred, succ T)) {
	nt := s.NT()
	lastWriter := make(map[int]T)
	// create makes the task writing tile (m,n) and chains it after that
	// tile's previous writer.
	create := func(c Class, k, m, n int, prio int64, deps ...T) T {
		key := m*nt + n
		lw, ok := lastWriter[key]
		var t T
		if c == Diag {
			t = newTask(Task{Class: c, K: k, M: m, N: n, Prio: prio}, lw, ok)
		} else {
			var zero T
			t = newTask(Task{Class: c, K: k, M: m, N: n, Prio: prio}, zero, false)
			for _, d := range deps {
				addDep(d, t)
			}
			if ok {
				addDep(lw, t)
			}
		}
		lastWriter[key] = t
		return t
	}
	var panel []T // TRSM tasks of the current panel, by TRSM index
	base := int64(nt+2) << 22
	for k := 0; k < nt; k++ {
		top := base - int64(k)<<22
		diag := create(Diag, k, k, k, top)
		panel = panel[:0]
		nb := s.NbTrsm(k)
		for i := 0; i < nb; i++ {
			m := s.TrsmAt(k, i)
			tt := create(Trsm, k, m, k, top-int64(m-k)<<8-1, diag)
			panel = append(panel, tt)
			create(Syrk, k, m, m, top-int64(m-k)<<8-2, tt)
			for j := 0; j < i; j++ {
				n := s.TrsmAt(k, j)
				create(Gemm, k, m, n, top-int64(m-n)<<8-3, tt, panel[j])
			}
		}
	}
}
