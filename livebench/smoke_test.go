package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"testing"
)

// spec is the part of BENCHMARK.json the smoke test checks against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSmoke runs every workload at the smallest scale, untraced and
// traced, and checks that each reports exactly the metrics
// BENCHMARK.json names, with their units, and no failed operation.
func TestSmoke(t *testing.T) {
	s := readSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(s.Workloads), len(workloads))
	}
	for _, wl := range s.Workloads {
		for _, traced := range []bool{false, true} {
			want := s.EndToEnd
			if traced {
				want = s.PerLayer
			}
			res, err := run(options{workload: wl.Name, seed: 7, seconds: 1, traced: traced, out: t.TempDir()}, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", wl.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", wl.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", wl.Name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s traced=%v: metric %s unit %q, want %q", wl.Name, traced, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0) || got.Value < 0:
					t.Errorf("%s traced=%v: metric %s = %v", wl.Name, traced, m.Name, got.Value)
				case !traced && got.Value == 0:
					t.Errorf("%s: end-to-end metric %s is 0", wl.Name, m.Name)
				}
			}
		}
	}
}

// TestMalformedLineFails injects one unparseable line and checks that it
// surfaces as a failed operation rather than vanishing into a metric.
func TestMalformedLineFails(t *testing.T) {
	res, err := run(options{workload: "dense-compare", seed: 7, seconds: 1, out: t.TempDir(), malformed: 1}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed < 1 {
		t.Errorf("malformed line: correct=%v failed=%d, want a failed operation", res.Correct, res.Failed)
	}
}
