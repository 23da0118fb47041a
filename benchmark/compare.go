package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"text/tabwriter"
)

// quartileSpread is the distance between the first and third quartile
// as a share of the median, with the quartiles of Python's
// statistics.quantiles(values, n=4) — the figure the builder's contract
// judges steadiness by. Fewer than two values have no spread.
func quartileSpread(xs []float64) float64 {
	m := len(xs)
	med := median(xs)
	if m < 2 || med == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (q(3) - q(1)) / med
}

// exact reports whether a per-layer metric is a simulated statistic or
// a count made by the program: such a value repeats bit for bit for a
// seed, so two runs compare exactly instead of statistically.
func exact(m metricSpec) bool {
	return m.Unit == "count" || m.Unit == "hash52" || m.Name == "sim.qos_rate" || m.Name == "sim.be_ups"
}

func loadSuite(path string) (*suiteDoc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc suiteDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	if doc.Schema != suiteSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, doc.Schema, suiteSchema)
	}
	return &doc, nil
}

// compareFiles judges result file B against baseline A, one row per
// workload and metric:
//
//	better / same / worse   an end-to-end metric against its bound; worse
//	                        means B's median is worse than A's by more
//	                        than the bound, better that it improved by
//	                        more than the spread and a third of the bound
//	unresolved              either side's quartile spread exceeds the
//	                        bound, so the runs cannot tell
//	exact / exact-mismatch  a simulated statistic or program count,
//	                        compared bit for bit run by run on each seed
//	info                    any other per-layer metric: shown, never judged
//
// It exits non-zero on any worse or exact-mismatch row and on any
// incorrect run.
func compareFiles(spec *benchSpec, pathA, pathB string, stdout, stderr io.Writer) int {
	var docs [2]*suiteDoc
	for i, path := range []string{pathA, pathB} {
		var err error
		if docs[i], err = loadSuite(path); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	return compareDocs(spec, docs[0], docs[1], stdout)
}

func compareDocs(spec *benchSpec, a, b *suiteDoc, stdout io.Writer) int {
	// values[workload][metric][seed] per side.
	type side map[string]map[string]map[int64]float64
	index := func(doc *suiteDoc) (side, int) {
		s, incorrect := side{}, 0
		for _, run := range doc.Runs {
			if !run.Correct {
				incorrect++
			}
			if s[run.Workload] == nil {
				s[run.Workload] = map[string]map[int64]float64{}
			}
			for name, m := range run.Metrics {
				if s[run.Workload][name] == nil {
					s[run.Workload][name] = map[int64]float64{}
				}
				s[run.Workload][name][run.Seed] = m.Value
			}
		}
		return s, incorrect
	}
	sa, badA := index(a)
	sb, badB := index(b)
	vals := func(m map[int64]float64) []float64 {
		out := make([]float64, 0, len(m))
		for _, v := range m {
			out = append(out, v)
		}
		return out
	}

	tw := tabwriter.NewWriter(stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA\tB\tchange\tverdict")
	regressions := badA + badB
	for _, w := range spec.Workloads {
		for _, m := range append(append([]metricSpec{}, spec.EndToEnd...), spec.PerLayer...) {
			va, vb := sa[w.Name][m.Name], sb[w.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(vals(va)), median(vals(vb))
			if ma == 0 && mb == 0 {
				continue // a layer this workload never enters
			}
			change := 0.0
			if ma != 0 {
				change = (mb - ma) / ma
			}
			worse := change
			if m.Better == "higher" {
				worse = -change
			}
			_, e2e, _ := spec.lookup(m.Name)
			verdict := "info"
			switch {
			case e2e:
				spread := max(quartileSpread(vals(va)), quartileSpread(vals(vb)))
				switch {
				case spread > m.Bound:
					verdict = fmt.Sprintf("unresolved (spread %.1f%% > bound %.0f%%)", spread*100, m.Bound*100)
				case worse > m.Bound:
					verdict = fmt.Sprintf("worse (bound %.0f%%)", m.Bound*100)
					regressions++
				case -worse > max(spread, m.Bound/3):
					verdict = "better"
				default:
					verdict = "same"
				}
			case exact(m):
				verdict = "exact"
				for seed, x := range va {
					if y, ok := vb[seed]; ok && x != y {
						verdict = fmt.Sprintf("exact-mismatch (seed %d: %v vs %v)", seed, x, y)
						regressions++
						break
					}
				}
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%+.1f%%\t%s\n", w.Name, m.Name,
				strconv.FormatFloat(ma, 'g', 6, 64), strconv.FormatFloat(mb, 'g', 6, 64), change*100, verdict)
		}
	}
	tw.Flush()
	if badA+badB > 0 {
		fmt.Fprintf(stdout, "%d incorrect runs in A, %d in B\n", badA, badB)
	}
	if regressions > 0 {
		fmt.Fprintf(stdout, "%d regressions\n", regressions)
		return 1
	}
	fmt.Fprintln(stdout, "no regression")
	return 0
}
