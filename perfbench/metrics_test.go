package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the program must agree with.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, listed []struct{ Name, Unit string }, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program reports %d", kind, len(listed), len(defs))
			return
		}
		for i, m := range listed {
			if m.Name != defs[i].name || m.Unit != defs[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, m.Name, m.Unit, defs[i].name, defs[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

func TestReportRejectsMissingAndNonFinite(t *testing.T) {
	defs := []metricDef{{"a", "s"}, {"b", "ns"}}
	ok := outcomeCounts{attempted: 1}
	if _, err := newReport(defs, map[string]float64{"a": 1}, ok); err == nil {
		t.Error("missing metric accepted")
	}
	if _, err := newReport(defs, map[string]float64{"a": 1, "b": 2, "c": 3}, ok); err == nil {
		t.Error("undefined metric accepted")
	}
	if _, err := newReport(defs, map[string]float64{"a": 1, "b": math.NaN()}, ok); err == nil {
		t.Error("NaN accepted")
	}
	rep, err := newReport(defs, map[string]float64{"a": 1, "b": 2}, outcomeCounts{attempted: 3, failed: 1})
	if err != nil || rep.Correct || rep.Attempted != 3 || rep.Failed != 1 {
		t.Errorf("report with a failed operation: %+v, %v", rep, err)
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-workload", "nope"}, &out, &errb); code == 0 || out.Len() > 0 {
		t.Errorf("unknown workload: exit %d, stdout %q", code, out.String())
	}
	if !strings.Contains(errb.String(), "unknown workload") {
		t.Errorf("stderr %q does not name the problem", errb.String())
	}
}
