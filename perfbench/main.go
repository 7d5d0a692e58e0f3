// Command perfbench is the repository benchmark. It runs one workload
// end to end through the product's public entry points — the
// points-to-solution pipeline in process, or the shipped tlrserve
// binary over loopback HTTP — checks every answer, and prints each
// metric with its unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// Build and run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload pipeline-chol --seed 1 --seconds 20 --trace 0
//
// See README.md for the workloads and the metric definitions.
package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	goruntime "runtime"
	"sort"
	"strings"
	"syscall"

	"tlrchol/internal/rbf"
)

//go:embed workloads.json
var workloadsJSON []byte

type workloadInfo struct {
	DefaultSeed int64 `json:"default_seed"`
	HeldOutSeed int64 `json:"held_out_seed"`
	Workloads   map[string]struct {
		Why      string   `json:"why"`
		Stresses []string `json:"stresses"`
		Bypasses []string `json:"bypasses"`
	} `json:"workloads"`
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	root     string
	tlrserve string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	tally
	metrics map[string]float64
	meta    map[string]any
}

func (r *result) set(name string, v float64) {
	if _, ok := units[name]; !ok {
		panic("perfbench: undeclared metric " + name)
	}
	r.metrics[name] = v
}

func main() { os.Exit(run()) }

func run() int {
	var info workloadInfo
	if err := json.Unmarshal(workloadsJSON, &info); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: workloads.json: %v\n", err)
		return 2
	}
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload name (see workloads.json)")
	flag.Int64Var(&o.seed, "seed", info.DefaultSeed, "workload seed: fixes the geometry and the request schedule")
	flag.IntVar(&o.seconds, "seconds", 20, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.StringVar(&o.root, "root", ".", "repository root")
	flag.StringVar(&o.tlrserve, "tlrserve", "", "path of the built tlrserve binary (serve workloads)")
	flag.Parse()
	o.trace = traceFlag == 1
	w, ok := info.Workloads[o.workload]
	if !ok {
		names := make([]string, 0, len(info.Workloads))
		for n := range info.Workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", o.workload, strings.Join(names, ", "))
		return 2
	}
	if o.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		return 2
	}
	// An interrupted run stops its servers before exiting.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP, syscall.SIGPIPE)
	go func() {
		<-sig
		stopAll()
		os.Exit(130)
	}()
	// Everything runs at GOMAXPROCS = nproc, the server included.
	goruntime.GOMAXPROCS(goruntime.NumCPU())

	res := &result{metrics: map[string]float64{}, meta: map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"go":         goruntime.Version(),
		"nproc":      goruntime.NumCPU(),
		"gomaxprocs": goruntime.GOMAXPROCS(0),
		"commit":     commit(o.root),
		"source":     sourceDigest(o.root),
		"stresses":   w.Stresses,
		"bypasses":   w.Bypasses,
	}}
	var err error
	if spec, ok := pipelines[o.workload]; ok {
		err = runPipeline(spec, o, res)
	} else {
		err = runServe(serveWorkloads[o.workload], o, res)
	}
	if err != nil {
		var inv invalidRun
		if errors.As(err, &inv) {
			fmt.Fprintf(os.Stderr, "perfbench: invalid run, not scored: %v\n", err)
			return 3
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	return report(res, o)
}

// report prints every metric with its unit, the run metadata, and the
// final JSON line. A wrong answer makes the run incorrect and the exit
// code 1.
func report(res *result, o options) int {
	want := endToEnd
	if o.trace {
		want = perLayer
	}
	out := map[string]metricValue{}
	for _, d := range want {
		v, ok := res.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if v, ok := res.metrics[d.name]; ok {
			fmt.Printf("%-28s %14.6g %s\n", d.name, v, d.unit)
		}
	}
	for _, e := range res.errors {
		fmt.Printf("failure: %s\n", e)
	}
	meta, _ := json.Marshal(res.meta)
	fmt.Printf("meta %s\n", meta)
	correct := res.wrong == 0 && res.attempted > 0
	line, _ := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{correct, res.attempted, res.failed, out})
	fmt.Println(string(line))
	if !correct {
		fmt.Fprintf(os.Stderr, "perfbench: correctness gate failed (%d wrong answers of %d)\n", res.wrong, res.attempted)
		return 1
	}
	return 0
}

// pointsDigest hashes the exact bits of a geometry.
func pointsDigest(pts []rbf.Point) string {
	h := sha256.New()
	var buf [8]byte
	for _, p := range pts {
		for _, v := range [3]float64{p.X, p.Y, p.Z} {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// commit names the checked-out commit, when the root is a git work
// tree; a plain source checkout has none.
func commit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes the program's Go sources and go.mod, so results
// from a checkout without git history still name the code they ran.
func sourceDigest(root string) string {
	h := sha256.New()
	skip := map[string]bool{"perfbench": true, ".bench_build": true, ".git": true}
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != root && (skip[d.Name()] || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			b, rerr := os.ReadFile(path)
			if rerr == nil {
				rel, _ := filepath.Rel(root, path)
				fmt.Fprintf(h, "%s %d\n", rel, len(b))
				h.Write(b)
			}
		}
		return nil
	})
	return hex.EncodeToString(h.Sum(nil)[:8])
}
