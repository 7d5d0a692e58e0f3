package trim

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestWalkDAG checks the structural contract every executor of the
// walk relies on, over full and random trimmed structures: the task set
// is the one TaskCounts tallies, creation order is topological, each
// tile's writes form one chain in increasing panel order, and every
// GEMM waits for both TRSMs it reads.
func TestWalkDAG(t *testing.T) {
	structures := map[string]Structure{
		"full-1": Full{Nt: 1},
		"full-7": Full{Nt: 7},
	}
	rng := rand.New(rand.NewSource(5))
	for i, density := range []float64{0, 0.1, 0.3, 0.6, 1} {
		structures[fmt.Sprintf("random-%d", i)] = Analyze(randomRanks(rng, 14, density), AllLocal)
	}
	for name, s := range structures {
		var tasks []Task
		preds := map[int][]int{}
		addDep := func(pred, succ int) {
			if pred >= succ {
				t.Fatalf("%s: edge %v -> %v goes backwards", name, tasks[pred], tasks[succ])
			}
			preds[succ] = append(preds[succ], pred)
		}
		Walk(s, func(tk Task, prev int, hasPrev bool) int {
			id := len(tasks)
			tasks = append(tasks, tk)
			if hasPrev {
				if tk.Class != Diag {
					t.Fatalf("%s: walk handed %v a predecessor", name, tk)
				}
				addDep(prev, id)
			}
			return id
		}, addDep)

		var counts [4]int
		for _, tk := range tasks {
			counts[tk.Class]++
		}
		p, tr, sy, g := TaskCounts(s)
		if counts != [4]int{p, tr, sy, g} {
			t.Fatalf("%s: walk created %v tasks, TaskCounts says %v", name, counts, [4]int{p, tr, sy, g})
		}

		dependsOn := func(succ, pred int) bool {
			for _, p := range preds[succ] {
				if p == pred {
					return true
				}
			}
			return false
		}
		last := map[[2]int]int{} // tile (m,n) -> id of its latest writer
		trsm := map[[2]int]int{} // (k,m) -> id of TRSM(k,m)
		for id, tk := range tasks {
			tile := [2]int{tk.M, tk.N}
			if lw, ok := last[tile]; ok {
				if tasks[lw].K >= tk.K {
					t.Fatalf("%s: writes of %v out of panel order: %v then %v", name, tile, tasks[lw], tk)
				}
				if !dependsOn(id, lw) {
					t.Fatalf("%s: %v does not follow the previous writer %v of its tile", name, tk, tasks[lw])
				}
			}
			last[tile] = id
			switch tk.Class {
			case Trsm:
				trsm[[2]int{tk.K, tk.M}] = id
			case Gemm:
				for _, row := range []int{tk.M, tk.N} {
					tt, ok := trsm[[2]int{tk.K, row}]
					if !ok || !dependsOn(id, tt) {
						t.Fatalf("%s: %v does not depend on TRSM(%d,%d)", name, tk, tk.K, row)
					}
				}
			}
		}
	}
}
