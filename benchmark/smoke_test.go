package main

import (
	"bytes"
	"context"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
)

// mayStayZero lists the per-layer metrics the smoke test cannot ask to
// see move: the two that read 0 on every correct run, and the balancer
// count, which moves only when a run draws an interference episode —
// a quick-scale minute usually does not.
var mayStayZero = map[string]bool{
	"coordinator.exchange.failed": true,
	"invariant.violations":        true,
	"core.balancer.calls":         true,
}

func runQuick(t *testing.T, workload, trace string) result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{"--workload", workload, "--seed", "11", "--quick", "--trace", trace}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("%s --trace %s exited %d:\n%s", workload, trace, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not a result: %v", workload, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s --trace %s: correct=%v failed=%d attempted=%d", workload, trace, res.Correct, res.Failed, res.Attempted)
	}
	return res
}

// TestSmoke runs all five workloads at quick scale, untraced and
// traced, and holds the driver to BENCHMARK.json: every run emits
// exactly the declared metric set, once each, under well-formed names;
// every end-to-end metric is positive on every workload; and no
// declared per-layer metric is dead on all of them.
func TestSmoke(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the driver runs %d", len(spec.Workloads), len(workloads))
	}
	moved := map[string]bool{}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Fatalf("BENCHMARK.json declares workload %q, which the driver does not run", w.Name)
		}
		for trace, declared := range map[string][]metricSpec{"0": spec.EndToEnd, "1": spec.PerLayer} {
			res := runQuick(t, w.Name, trace)
			if len(res.Metrics) != len(declared) {
				t.Errorf("%s --trace %s emitted %d metrics, BENCHMARK.json declares %d", w.Name, trace, len(res.Metrics), len(declared))
			}
			for _, m := range declared {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s --trace %s: declared metric %s missing", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s: %s has unit %q, declared %q", w.Name, m.Name, got.Unit, m.Unit)
				case trace == "0" && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.Name, m.Name, got.Value)
				}
				if got.Value != 0 {
					moved[m.Name] = true
				}
			}
			for name := range res.Metrics {
				if !nameRE.MatchString(name) {
					t.Errorf("%s: metric name %q is malformed", w.Name, name)
				}
			}
		}
	}
	for _, m := range spec.PerLayer {
		if !moved[m.Name] && !mayStayZero[m.Name] {
			t.Errorf("per-layer metric %s is declared but no workload ever measures it", m.Name)
		}
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{3, 1, 4, 2, 5, 10, 9, 8, 7, 6}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; got != want {
		t.Fatalf("quartileSpread = %v, want %v", got, want)
	}
	if quartileSpread([]float64{4}) != 0 {
		t.Fatal("a single value has no spread")
	}
}

func TestCompareVerdicts(t *testing.T) {
	spec := &benchSpec{
		EndToEnd: []metricSpec{
			{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.10},
			{Name: "op_p95_us", Unit: "us", Better: "lower", Bound: 0.20},
		},
		PerLayer: []metricSpec{{Name: "core.search.calls", Unit: "count", Better: "lower"}},
	}
	spec.Workloads = append(spec.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "w"})
	doc := func(ops, p99 []float64, calls float64) *suiteDoc {
		d := &suiteDoc{Schema: suiteSchema}
		for i := range ops {
			d.Runs = append(d.Runs,
				suiteRun{Workload: "w", Seed: int64(i), result: result{Correct: true, Attempted: 1, Metrics: map[string]metric{
					"ops_per_s": {Value: ops[i]}, "op_p95_us": {Value: p99[i]}}}},
				suiteRun{Workload: "w", Seed: int64(i), Traced: true, result: result{Correct: true, Attempted: 1, Metrics: map[string]metric{
					"core.search.calls": {Value: calls}}}})
		}
		return d
	}
	base := doc([]float64{100, 101, 99, 100}, []float64{50, 51, 49, 50}, 7)
	for _, tc := range []struct {
		name string
		b    *suiteDoc
		code int
		want string
	}{
		{"same", doc([]float64{100, 100, 101, 99}, []float64{50, 50, 51, 49}, 7), 0, "same"},
		{"slower", doc([]float64{80, 81, 79, 80}, []float64{50, 50, 51, 49}, 7), 1, "worse"},
		{"faster", doc([]float64{130, 131, 129, 130}, []float64{50, 50, 51, 49}, 7), 0, "better"},
		{"noisy", doc([]float64{100, 100, 101, 99}, []float64{30, 80, 45, 70}, 7), 0, "unresolved"},
		{"drifted", doc([]float64{100, 100, 101, 99}, []float64{50, 50, 51, 49}, 8), 1, "exact-mismatch"},
	} {
		var out bytes.Buffer
		if code := compareDocs(spec, base, tc.b, &out); code != tc.code || !strings.Contains(out.String(), tc.want) {
			t.Errorf("%s: exit %d, want %d with a %q row:\n%s", tc.name, code, tc.code, tc.want, out.String())
		}
	}
}
