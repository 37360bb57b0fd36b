package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

const benchJSON = "../BENCHMARK.json"

// BENCHMARK.json must load, hold exactly the contract's keys and limits,
// and name the workloads the program runs; loadCatalog checks that every
// per-layer metric names an existing end-to-end metric and workload.
func TestBenchmarkJSON(t *testing.T) {
	c, err := loadCatalog(benchJSON)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(benchJSON)
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []any       `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 || len(b.Command) == 0 || len(b.Command) > 32 {
		t.Errorf("run_seconds %d, command %q", b.RunSeconds, b.Command)
	}
	if !slices.Equal(b.Paths, []string{"perfbench"}) {
		t.Errorf("paths = %q", b.Paths)
	}
	var workloads []string
	for _, w := range c.Workloads {
		workloads = append(workloads, w.Name)
		if !validName(w.Name) || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: invalid name, or why not one line of at most 200 characters", w.Name)
		}
	}
	if !slices.Equal(workloads, workloadNames()) {
		t.Errorf("workloads %q, program runs %q", workloads, workloadNames())
	}
	maxBound := 0.0
	for _, m := range c.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
	}
	i := slices.IndexFunc(c.EndToEnd, func(m metricDef) bool { return m.Name == "setup_s" })
	if i < 0 || c.EndToEnd[i] != (metricDef{"setup_s", "s", "lower", maxBound}) {
		t.Error("setup_s must be listed, in s, lower is better, with the largest bound")
	}
	for _, m := range c.PerLayer {
		if m.Bound != 0 {
			t.Errorf("per-layer metric %s has a bound", m.Name)
		}
		if len(layerMoves[m.Name]) == 0 && m.Name != "trace.overhead_frac" {
			t.Errorf("%s names no end-to-end metric it should move", m.Name)
		}
	}
}

// A catalog whose per-layer list and layer table disagree, or whose
// layer table names a missing end-to-end metric, is refused.
func TestLoadCatalogRejectsMismatch(t *testing.T) {
	c, err := loadCatalog(benchJSON)
	if err != nil {
		t.Fatal(err)
	}
	write := func(c catalog) string {
		raw, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "BENCHMARK.json")
		if err := os.WriteFile(path, raw, 0o600); err != nil {
			t.Fatal(err)
		}
		return path
	}
	extra := *c
	extra.PerLayer = append(slices.Clone(c.PerLayer), metricDef{Name: "nope.metric", Unit: "count", Better: "lower"})
	noTarget := *c
	noTarget.EndToEnd = slices.DeleteFunc(slices.Clone(c.EndToEnd), func(m metricDef) bool { return m.Name == "read_p50_ms" })
	badName := *c
	badName.PerLayer = slices.Clone(c.PerLayer)
	badName.PerLayer[0].Name = "bad name"
	for what, bad := range map[string]catalog{"extra per-layer metric": extra, "missing target": noTarget, "bad name": badName} {
		if _, err := loadCatalog(write(bad)); err == nil {
			t.Errorf("%s: accepted", what)
		}
	}
}
