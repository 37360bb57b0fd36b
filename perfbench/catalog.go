package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"regexp"
	"slices"
)

// The metric catalog. BENCHMARK.json at the repository root is the one
// list of the metrics the benchmark prints, with their units and
// directions; the program reads it at start. Its schema has no field
// for the end-to-end metric a per-layer metric should move, so that
// table, layerMoves, is kept here, and loadCatalog checks that the two
// name the same per-layer metrics.

// A metric name starts with a letter or digit and has at most 64
// letters, digits, '_', '.' and '-'; a unit has at most 16 letters,
// digits, '_', '/', '%', '.' and '-'.
var (
	nameRule = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRule = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func validName(s string) bool { return nameRule.MatchString(s) }
func validUnit(s string) bool { return unitRule.MatchString(s) }

// metricDef is one metric as BENCHMARK.json lists it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end metrics only
}

// catalog is the part of BENCHMARK.json the program uses.
type catalog struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// loadCatalog reads BENCHMARK.json and checks every metric's name,
// unit and direction, and that its per-layer metrics are exactly the
// ones layerMoves knows, each naming existing end-to-end metrics and
// workloads.
func loadCatalog(path string) (*catalog, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c catalog
	if err := json.Unmarshal(raw, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	var errs []error
	seen := make(map[string]bool)
	var workloads []string
	for _, w := range c.Workloads {
		workloads = append(workloads, w.Name)
	}
	e2e := make(map[string]bool)
	for _, m := range c.EndToEnd {
		e2e[m.Name] = true
	}
	for _, m := range slices.Concat(c.EndToEnd, c.PerLayer) {
		if !validName(m.Name) || !validUnit(m.Unit) || (m.Better != "lower" && m.Better != "higher") || seen[m.Name] {
			errs = append(errs, fmt.Errorf("metric %q: invalid or repeated name, unit %q or direction %q", m.Name, m.Unit, m.Better))
		}
		seen[m.Name] = true
	}
	for _, m := range c.PerLayer {
		moves, ok := layerMoves[m.Name]
		if !ok {
			errs = append(errs, fmt.Errorf("per-layer metric %s is not in the program's layer table", m.Name))
		}
		for _, tg := range moves {
			if !e2e[tg.Metric] || !slices.Contains(workloads, tg.Workload) {
				errs = append(errs, fmt.Errorf("%s should move %s on %s: no such metric or workload", m.Name, tg.Metric, tg.Workload))
			}
		}
	}
	for name := range layerMoves {
		if !slices.ContainsFunc(c.PerLayer, func(m metricDef) bool { return m.Name == name }) {
			errs = append(errs, fmt.Errorf("layer table metric %s is not in %s", name, path))
		}
	}
	if err := errors.Join(errs...); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

// target is one (end-to-end metric, workload) pair a per-layer metric
// should move.
type target struct {
	Metric   string
	Workload string
}

// Workload names.
const (
	wDBLP   = "dblp-read"
	wServe  = "serve-ingest"
	wCartel = "cartel-spatial"
)

func moves(pairs ...string) []target {
	var ts []target
	for i := 0; i+1 < len(pairs); i += 2 {
		ts = append(ts, target{pairs[i], pairs[i+1]})
	}
	return ts
}

// layerMoves names, for every metric the traced run prints, the
// end-to-end metrics it should move and on which workloads. A layer
// that a workload does not reach reports 0 there.
var layerMoves = map[string][]target{
	// The write tail is the wait behind merges and flushes on
	// serve-ingest and behind open streams on cartel-spatial; it swings
	// too much from run to run to carry a bound, so it is a layer figure.
	"write_p99_ms":                   moves("write_p50_ms", wServe, "write_p50_ms", wCartel),
	"upidb.run_us_p50":               moves("read_p50_ms", wDBLP, "read_p50_ms", wCartel),
	"upidb.drain_us_p50":             moves("read_p50_ms", wDBLP),
	"planner.cache_hit_ratio":        moves("read_p50_ms", wDBLP, "read_p50_ms", wServe),
	"planner.stats_route_frac":       moves("modeled_ms_per_op", wServe),
	"planner.est_over_charged":       moves("modeled_ms_per_op", wDBLP, "modeled_ms_per_op", wCartel),
	"stats.staleness_end":            moves("modeled_ms_per_op", wServe),
	"shard.scatters_per_query":       moves("read_p50_ms", wDBLP),
	"shard.topk_early_term_frac":     moves("read_p50_ms", wDBLP),
	"fracture.partitions_per_query":  moves("read_p50_ms", wServe, "modeled_ms_per_op", wServe),
	"fracture.stream_over_collect":   moves("read_p50_ms", wDBLP, "read_p99_ms", wDBLP),
	"fracture.scan_us_p50":           moves("read_p99_ms", wDBLP),
	"fracture.slowest_scan_share":    moves("read_p99_ms", wDBLP),
	"fracture.wal_fsyncs_per_write":  moves("write_p50_ms", wServe),
	"fracture.wal_fsync_us_p50":      moves("write_p50_ms", wServe),
	"fracture.flushes":               moves("read_p99_ms", wServe),
	"fracture.merges":                moves("read_p99_ms", wServe),
	"fracture.merge_s_total":         moves("read_p99_ms", wServe),
	"fracture.buffer_hits_per_query": moves("read_p50_ms", wServe),
	"upi.heap_entries_per_result":    moves("read_p50_ms", wDBLP),
	"upi.cutoff_pointers_per_query":  moves("modeled_ms_per_op", wDBLP),
	"upi.secondary_us_p50":           moves("read_p99_ms", wDBLP),
	"cupi.candidates_per_result":     moves("read_p50_ms", wCartel),
	"cupi.heap_fetches_per_query":    moves("modeled_ms_per_op", wCartel),
	"cupi.fullscan_route_frac":       moves("modeled_ms_per_op", wCartel),
	"cupi.insert_us_p99":             moves("write_p50_ms", wCartel),
	"sim.seeks_per_op":               moves("modeled_ms_per_op", wDBLP, "modeled_ms_per_op", wServe, "modeled_ms_per_op", wCartel),
	"sim.read_kb_per_op":             moves("modeled_ms_per_op", wDBLP, "modeled_ms_per_op", wServe, "modeled_ms_per_op", wCartel),
	"sim.opens_per_op":               moves("modeled_ms_per_op", wDBLP, "modeled_ms_per_op", wServe, "modeled_ms_per_op", wCartel),
	"sim.write_amp":                  moves("write_p50_ms", wServe, "space_amp", wServe),
	"server.handler_ms_mean":         moves("read_p50_ms", wServe, "write_p50_ms", wServe),
	"server.wire_overhead_ms":        moves("read_p50_ms", wServe, "write_p50_ms", wServe),
	"server.shed_total":              moves("throughput_ops_s", wServe),
	"runtime.allocs_per_op":          moves("throughput_ops_s", wDBLP, "throughput_ops_s", wServe, "throughput_ops_s", wCartel, "read_p99_ms", wDBLP, "read_p99_ms", wServe, "read_p99_ms", wCartel),
	"runtime.alloc_kb_per_op":        moves("throughput_ops_s", wDBLP, "throughput_ops_s", wServe, "throughput_ops_s", wCartel, "read_p99_ms", wDBLP, "read_p99_ms", wServe, "read_p99_ms", wCartel),
	"runtime.gc_pause_ms_total":      moves("read_p99_ms", wDBLP, "read_p99_ms", wServe, "read_p99_ms", wCartel),
	"trace.overhead_frac":            nil,
	"count.modeled_ms":               moves("modeled_ms_per_op", wDBLP, "modeled_ms_per_op", wServe, "modeled_ms_per_op", wCartel),
	"count.seeks":                    moves("modeled_ms_per_op", wDBLP, "modeled_ms_per_op", wServe, "modeled_ms_per_op", wCartel),
	"count.heap_entries":             moves("read_p50_ms", wDBLP, "read_p50_ms", wServe),
	"count.cutoff_pointers":          moves("modeled_ms_per_op", wDBLP),
	"count.candidates":               moves("read_p50_ms", wCartel),
}
