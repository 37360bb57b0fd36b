// Command perfbench is the repository benchmark. It runs one named
// workload against the engine's public entry points (the upidb facade,
// internal/server for HTTP serving, internal/dataset for inputs),
// checks every sampled answer against a brute-force oracle, and prints
// one JSON result line:
//
//	go build -o perfbench . && ./perfbench --benchmark ../BENCHMARK.json --workload dblp-read --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end figures, measured with
// tracing off. With --trace 1 the run adds the deterministic
// single-client count pass and a traced phase, and prints the
// per-layer figures instead. The names, units and directions of the
// metrics come from BENCHMARK.json. See README.md for the workloads
// and the definition of every metric.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	ctx := context.Background()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// runCfg is what every workload receives.
type runCfg struct {
	seed    int64
	seconds time.Duration
	trace   bool
	// size scales the data; 1 is the benchmark, tests use a small
	// fraction.
	size float64
}

// report is what a workload hands back: operation counts, the figures
// of the requested kind, and a description of every failed check.
type report struct {
	attempted int64
	failed    int64
	problems  []string
	figs      *figures
	spans     *tracer
}

func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < maxProblems {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// maxProblems bounds the failure descriptions kept for stderr.
const maxProblems = 20

type workloadFunc func(ctx context.Context, cfg runCfg) (*report, error)

var workloads = map[string]workloadFunc{
	wDBLP:   runDBLP,
	wServe:  runServe,
	wCartel: runCartel,
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: dblp-read, serve-ingest or cartel-spatial")
	seed := fs.Int64("seed", 1, "seed for the generated data and op lists")
	seconds := fs.Int("seconds", 10, "length of one measured phase, in seconds")
	traceFlag := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	spanDir := fs.String("spans", filepath.Join(".bench_build", "spans"), "directory the traced run writes its spans to")
	benchFile := fs.String("benchmark", "BENCHMARK.json", "the metric catalog")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	cat, err := loadCatalog(*benchFile)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	defs := cat.EndToEnd
	if *traceFlag == 1 {
		defs = cat.PerLayer
	}
	cfg := runCfg{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *traceFlag == 1, size: 1}
	rep, err := w(ctx, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if rep.spans != nil {
		path := filepath.Join(*spanDir, fmt.Sprintf("%s-seed%d.jsonl", *name, *seed))
		if err := rep.spans.write(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "perfbench: spans written to %s\n", path)
	}
	for _, p := range rep.problems {
		fmt.Fprintf(stderr, "perfbench: FAILED: %s\n", p)
	}
	res, err := buildResult(rep, defs)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string { return []string{wDBLP, wServe, wCartel} }

// buildResult checks that the report carries exactly the metrics defs
// lists, each a finite number.
func buildResult(rep *report, defs []metricDef) (result, error) {
	if rep.figs.err != nil {
		return result{}, rep.figs.err
	}
	if len(rep.figs.vals) != len(defs) {
		return result{}, fmt.Errorf("internal: %d metrics computed, catalog has %d", len(rep.figs.vals), len(defs))
	}
	out := result{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	if out.Attempted < 1 {
		return result{}, errors.New("no operation was attempted")
	}
	for _, d := range defs {
		v, ok := rep.figs.vals[d.Name]
		if !ok {
			return result{}, fmt.Errorf("internal: metric %s not computed", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		out.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}

// setupRepeats is how many times a run builds its workload; setup_s is
// the median. In the traced run the earlier instances host the count
// passes, so both passes start from identical, freshly built state.
const setupRepeats = 5

// instance is one built workload.
type instance interface {
	close(ctx context.Context) error
}

// buildInstances builds the workload setupRepeats times, hands every
// instance but the last to use and closes it, and returns the last one
// with the median set-up time in seconds.
func buildInstances[T instance](ctx context.Context, build func() (T, error), use func(i int, inst T) error) (T, float64, error) {
	var zero T
	times := make([]float64, 0, setupRepeats)
	for i := 0; ; i++ {
		runtime.GC()
		start := time.Now()
		inst, err := build()
		if err != nil {
			return zero, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		if i == setupRepeats-1 {
			return inst, medianOf(times), nil
		}
		err = use(i, inst)
		if cerr := inst.close(ctx); err == nil && cerr != nil {
			err = fmt.Errorf("closing set-up instance: %w", cerr)
		}
		if err != nil {
			return zero, 0, err
		}
	}
}

// memMB is the live heap, in MiB, after a forced collection.
func memMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// rtSnap is a runtime.MemStats reading at a phase boundary.
type rtSnap struct{ mallocs, bytes, pauseNs uint64 }

func readRuntime() rtSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return rtSnap{ms.Mallocs, ms.TotalAlloc, ms.PauseTotalNs}
}

// setRuntime sets the runtime.* per-layer figures from two readings
// around a phase of ops operations.
func (f *figures) setRuntime(a, b rtSnap, ops int64) {
	f.set("runtime.allocs_per_op", ratio(float64(b.mallocs-a.mallocs), float64(ops)))
	f.set("runtime.alloc_kb_per_op", ratio(float64(b.bytes-a.bytes)/1024, float64(ops)))
	f.set("runtime.gc_pause_ms_total", float64(b.pauseNs-a.pauseNs)/1e6)
}
