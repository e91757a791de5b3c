package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"testing"
)

// TestSmoke runs the whole benchmark — set-up, the fit, stream and
// serve phases with every correctness check, and the traced pass — on a
// tiny corpus, and checks that each mode reports exactly the metrics
// BENCHMARK.json declares for it, with their units.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []struct {
		trace bool
		want  []struct{ Name, Unit string }
	}{{false, spec.EndToEnd}, {true, spec.PerLayer}} {
		var out bytes.Buffer
		res, err := benchmark(config{
			name: "smoke", wl: workload{target: 1000, attachment: -1}, seed: 1,
			seconds: 4, trace: mode.trace, rate: 50, workDir: t.TempDir(),
		}, &out)
		if err != nil {
			t.Fatalf("trace=%v: %v\n%s", mode.trace, err, out.String())
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Fatalf("trace=%v: correct=%v attempted=%d failed=%d\n%s",
				mode.trace, res.Correct, res.Attempted, res.Failed, out.String())
		}
		if len(res.Metrics) != len(mode.want) {
			t.Errorf("trace=%v: %d metrics reported, BENCHMARK.json declares %d", mode.trace, len(res.Metrics), len(mode.want))
		}
		for _, w := range mode.want {
			m, ok := res.Metrics[w.Name]
			switch {
			case !ok:
				t.Errorf("trace=%v: metric %s missing", mode.trace, w.Name)
			case m.Unit != w.Unit:
				t.Errorf("trace=%v: metric %s in %q, BENCHMARK.json says %q", mode.trace, w.Name, m.Unit, w.Unit)
			case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
				t.Errorf("trace=%v: metric %s = %v", mode.trace, w.Name, m.Value)
			}
		}
	}
}
