package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// tiny shrinks a workload to a fraction of a second per pass while
// keeping its shape: same plane, same call pattern, calls still larger
// than a stripe unit where the full size's are.
func tiny(w workload) workload {
	switch w.name {
	case "ckpt_large":
		w.minBytes, w.maxBytes, w.ioBytes = mib, mib, 256*kib
	case "ckpt_small":
		w.minBytes, w.maxBytes = 256*kib, 256*kib
	case "ckpt_mirror_dev":
		w.minBytes, w.maxBytes, w.ioBytes, w.devBPS = 512*kib, 512*kib, 256*kib, 2e9
	case "meta_storm":
		w.files = 40
	}
	return w
}

type benchmarkFile struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func keys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func names(defs []metricDef) []string {
	out := make([]string, 0, len(defs))
	for _, d := range defs {
		out = append(out, d.name)
	}
	sort.Strings(out)
	return out
}

// TestBenchmarkFileMatches keeps BENCHMARK.json and the program's metric
// and workload tables in step.
func TestBenchmarkFileMatches(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, defs []metricDef, listed []struct{ Name, Unit string }) {
		units := map[string]string{}
		for _, l := range listed {
			units[l.Name] = l.Unit
		}
		if len(units) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program prints %d", kind, len(units), len(defs))
		}
		for _, d := range defs {
			if units[d.name] != d.unit {
				t.Errorf("%s %s: unit %q in the program, %q in BENCHMARK.json", kind, d.name, d.unit, units[d.name])
			}
		}
	}
	check("end_to_end", endToEndMetrics, bf.EndToEnd)
	check("per_layer", perLayerMetrics, bf.PerLayer)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, bf.Workloads[i].Name, w.name)
		}
	}
}

// TestSmoke runs every workload at tiny size through both passes.
func TestSmoke(t *testing.T) {
	for _, full := range workloads {
		w := tiny(full)
		t.Run(w.name, func(t *testing.T) {
			const epochs = 2
			u, err := runPass(w, 1, epochs, 1, false)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := runPass(w, 1, epochs, 1, true)
			if err != nil {
				t.Fatal(err)
			}
			if err := checkTraced(tr); err != nil {
				t.Error(err)
			}
			if u.tally.failed+tr.tally.failed != 0 {
				t.Errorf("failed operations: %d untraced, %d traced", u.tally.failed, tr.tally.failed)
			}
			if got, want := keys(endToEnd(u)), names(endToEndMetrics); strings.Join(got, " ") != strings.Join(want, " ") {
				t.Errorf("end-to-end metrics %v, want %v", got, want)
			}
			layer, bud := perLayer(u, tr)
			if got, want := keys(layer), names(perLayerMetrics); strings.Join(got, " ") != strings.Join(want, " ") {
				t.Errorf("per-layer metrics %v, want %v", got, want)
			}
			var total float64
			for _, sh := range bud.shares {
				total += sh
			}
			if total < 0.999 || total > 1.001 {
				t.Errorf("layer shares and the unattributed rest sum to %v", total)
			}
			// Tracing must not change what the program does.
			if a, b := u.d["target_cmds"], tr.d["target_cmds"]; a != b {
				t.Errorf("target commands over %d epochs: %v untraced, %v traced", epochs, a, b)
			}
			striped := w.plane != planePlain
			if got := layer["stripe.calls_per_epoch"] > 0; got != striped {
				t.Errorf("stripe.calls_per_epoch = %v on a workload with striped = %v", layer["stripe.calls_per_epoch"], striped)
			}
		})
	}
}

// TestMeasurePrintsResult covers the path the command takes: one
// workload, metrics printed by name, spans written.
func TestMeasurePrintsResult(t *testing.T) {
	out := filepath.Join(t.TempDir(), "trace.jsonl")
	res, err := measure(io.Discard, tiny(workloads[1]), 2, 2, 1, true, out)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("result %+v", res)
	}
	if len(res.Metrics) != len(perLayerMetrics) {
		t.Errorf("%d metrics in the result, want %d", len(res.Metrics), len(perLayerMetrics))
	}
	if info, err := os.Stat(out); err != nil || info.Size() == 0 {
		t.Errorf("span file: %v", err)
	}
}
