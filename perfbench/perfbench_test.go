package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
	"time"
)

// Run from the perfbench directory: go test .

func TestInputsArePureFunctionOfSeed(t *testing.T) {
	for _, w := range workloads {
		digest := func(seed int64) string {
			b, err := w.setup(setupParams{seed: seed, seconds: time.Second, tiny: true}, nil)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			return b.digest()
		}
		a, b, other := digest(7), digest(7), digest(8)
		if a != b {
			t.Errorf("%s: seed 7 gave digests %s and %s", w.name, a, b)
		}
		if a == other {
			t.Errorf("%s: seeds 7 and 8 gave the same digest %s", w.name, a)
		}
	}
}

// manifest is the part of BENCHMARK.json the metric tables must match.
type manifest struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func TestMetricTablesMatchManifest(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in the code, %d in BENCHMARK.json", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: code has %s (%s), BENCHMARK.json %s (%s)",
					what, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, m.EndToEnd)
	same("per_layer", perLayer, m.PerLayer)
}

// Each workload at a tiny size emits every named metric with its unit,
// checks its results, and fails nothing.
func TestTinyWorkloadsEmitEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := measure(w, 1, time.Second, traced, true, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct %v, %d of %d failed", w.name, traced, res.Correct, res.Failed, res.Attempted)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: no %s", w.name, traced, m.name)
				case got.Unit != m.unit:
					t.Errorf("%s traced=%v: %s unit %q, want %q", w.name, traced, m.name, got.Unit, m.unit)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, want > 0", w.name, m.name, got.Value)
				}
			}
		}
	}
}
