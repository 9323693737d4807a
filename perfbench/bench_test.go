package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// tinyScale keeps every workload's shape at a size that runs in well under
// a second.
func tinyScale() scale {
	return scale{
		epochTxns:       50,
		warmEpochs:      3,
		setups:          2,
		epochsPerSecond: 30,
		ycsbRows:        2_000,
		sbCustomers:     400,
		sbRate:          2_000,
		sbMaxBatch:      50,
		sbMaxDelay:      2 * time.Millisecond,
		tpccWarehouses:  1,
		tpccCustomers:   10,
		tpccItems:       50,
	}
}

func tinyOptions(t *testing.T, workload string, traced bool) options {
	return options{
		workload: workload,
		seed:     7,
		window:   200 * time.Millisecond,
		trace:    traced,
		out:      t.TempDir(),
		sc:       tinyScale(),
	}
}

// lastLine runs the benchmark and decodes the line it printed last.
func lastLine(t *testing.T, o options) (*result, map[string]any) {
	t.Helper()
	var out bytes.Buffer
	res, err := runAndPrint(o, &out)
	if err != nil {
		t.Fatalf("%s: %v", o.workload, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var raw map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
		t.Fatalf("%s: last line is not JSON: %v", o.workload, err)
	}
	return res, raw
}

// TestSmoke runs every workload untraced and traced at tiny size and checks
// that the result line carries exactly the documented keys and metrics,
// each with its unit, and that the traced run writes a loadable trace.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			o := tinyOptions(t, name, traced)
			res, raw := lastLine(t, o)
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d",
					name, traced, res.Correct, res.Attempted, res.Failed)
			}
			for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
				if _, ok := raw[k]; !ok {
					t.Errorf("%s: result line lacks %q", name, k)
				}
			}
			if len(raw) != 4 {
				t.Errorf("%s: result line has %d keys, want 4", name, len(raw))
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			metrics := raw["metrics"].(map[string]any)
			if len(metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := metrics[d.name].(map[string]any)
				if !ok {
					t.Errorf("%s traced=%v: metric %s missing", name, traced, d.name)
					continue
				}
				if _, ok := m["value"].(float64); !ok || m["unit"] != d.unit || len(m) != 2 {
					t.Errorf("%s: metric %s = %v, want a value and unit %q", name, d.name, m, d.unit)
				}
			}
			if !traced {
				for _, d := range endToEnd {
					if res.Metrics[d.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.name, res.Metrics[d.name].Value)
					}
				}
				continue
			}
			path := filepath.Join(o.out, "trace-"+name+"-seed7.json")
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			var tr struct {
				TraceEvents []map[string]any `json:"traceEvents"`
			}
			if err := json.Unmarshal(b, &tr); err != nil || len(tr.TraceEvents) == 0 {
				t.Errorf("%s: trace does not decode (%v, %d events)", name, err, len(tr.TraceEvents))
			}
		}
	}
}

// TestCorruptionFailsCheck proves the output check is live: one flipped
// byte of a persisted row value, written through the device, must fail the
// check and make the command exit non-zero.
func TestCorruptionFailsCheck(t *testing.T) {
	o := tinyOptions(t, "ycsb-rmw", false)
	o.corrupt = true
	res, err := run(o)
	if !errors.Is(err, errMismatch) {
		t.Fatalf("corrupted run: err = %v, want an output-check failure", err)
	}
	if res == nil || res.Correct {
		t.Fatalf("corrupted run reported correct")
	}
	if code := exitCode(res, nil); code == 0 {
		t.Errorf("corrupted run exits 0")
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps the metric tables in step with
// the repository's BENCHMARK.json.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", what, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark prints %s (%s)",
					what, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, want %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json has %s, want %s", i, w.Name, workloadNames[i])
		}
	}
}
