package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"tlrchol/internal/core"
	"tlrchol/internal/dense"
)

// TestGateCountsPerturbedSolution runs a small pipeline, checks that
// its answer passes the gate, then feeds perturbed copies of the same
// solution through the gate and checks each is counted as wrong and
// makes the run incorrect.
func TestGateCountsPerturbedSolution(t *testing.T) {
	spec := pipelineSpec{n: 512, tile: 64, tol: 1e-6, compress: "svd"}
	it, x, err := spec.run(geometry(spec.n, 1), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	var good tally
	good.check(x, it.resid, spec.tol)
	if good.wrong != 0 || good.attempted != 1 {
		t.Fatalf("exact solution rejected: resid %.3e, errors %v", it.resid, good.errors)
	}

	perturbed := func(f func(d []float64)) ([]float64, float64) {
		xp := &dense.Matrix{Rows: it.rhs.Rows, Cols: it.rhs.Cols, Stride: it.rhs.Cols, Data: append([]float64(nil), x...)}
		f(xp.Data)
		return xp.Data, core.OperatorResidual(core.TLROperator{M: it.op}, xp, it.rhs)
	}
	var bad tally
	for _, f := range []func(d []float64){
		func(d []float64) { d[7] += 1e-3 },
		func(d []float64) { d[0] = math.NaN() },
	} {
		xp, resid := perturbed(f)
		bad.check(xp, resid, spec.tol)
	}
	if bad.attempted != 2 || bad.failed != 2 || bad.wrong != 2 {
		t.Fatalf("perturbed solutions: attempted %d failed %d wrong %d, want 2/2/2", bad.attempted, bad.failed, bad.wrong)
	}

	res := &result{tally: bad, metrics: map[string]float64{}, meta: map[string]any{}}
	if code := report(res, options{}); code != 1 {
		t.Fatalf("report exit code %d for a run with wrong answers, want 1", code)
	}
	if code := report(&result{tally: good, metrics: map[string]float64{}, meta: map[string]any{}}, options{}); code != 0 {
		t.Fatalf("report exit code %d for a correct run, want 0", code)
	}
}

// TestMetricsMatchBenchmarkJSON checks that the metrics the benchmark
// reports are the ones BENCHMARK.json declares, with the same units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []struct{ Name, Unit string }, ours []metricDef) {
		if len(declared) != len(ours) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark reports %d", kind, len(declared), len(ours))
			return
		}
		for i, d := range declared {
			if d.Name != ours[i].name || d.Unit != ours[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark %s (%s)", kind, i, d.Name, d.Unit, ours[i].name, ours[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

// TestWorkloadsAgree checks that workloads.json, BENCHMARK.json and
// the code name the same workloads.
func TestWorkloadsAgree(t *testing.T) {
	var info workloadInfo
	if err := json.Unmarshal(workloadsJSON, &info); err != nil {
		t.Fatal(err)
	}
	for name := range info.Workloads {
		_, pipe := pipelines[name]
		_, srv := serveWorkloads[name]
		if pipe == srv {
			t.Errorf("workload %q: pipeline %v, serve %v; want exactly one", name, pipe, srv)
		}
	}
	if n := len(pipelines) + len(serveWorkloads); n != len(info.Workloads) {
		t.Errorf("code defines %d workloads, workloads.json %d", n, len(info.Workloads))
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(info.Workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, workloads.json %d", len(b.Workloads), len(info.Workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := info.Workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not in workloads.json", w.Name)
		}
	}
}

func TestSliceQuantile(t *testing.T) {
	xs := make([]float64, 3000)
	for i := range xs {
		xs[i] = float64(i % 500)
	}
	// Six slices of 0..499 each: every slice's p99 is 494.01.
	if got := sliceQuantile(xs, 0.99); math.Abs(got-494.01) > 1e-9 {
		t.Fatalf("sliceQuantile = %v, want 494.01", got)
	}
	// Two stalled slices do not move the median of seven.
	xs = append(xs, xs[:500]...)
	for i := 500; i < 1500; i += 7 {
		xs[i] = 1e6
	}
	if got := sliceQuantile(xs, 0.99); math.Abs(got-494.01) > 1e-9 {
		t.Fatalf("sliceQuantile with two stalled slices = %v, want 494.01", got)
	}
}

func TestBestSliceMedian(t *testing.T) {
	// Four slices of 250; the host stalls through three of them.
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = 5
		if i < 750 {
			xs[i] = 9
		}
	}
	if got := bestSliceMedian(xs); got != 5 {
		t.Fatalf("bestSliceMedian = %v, want 5", got)
	}
	if got := bestSliceMedian([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("bestSliceMedian of a short sample = %v, want its median 2", got)
	}
}
