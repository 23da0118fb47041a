package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// metricSpec is one metric declaration of BENCHMARK.json. Bound is the
// share of the baseline median by which an end-to-end metric may worsen
// before a change counts as a regression; per-layer metrics carry none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json: the single declaration of the workload
// and metric names, units, directions and bounds. The driver reads it
// at start-up instead of repeating the catalogue in code, so the file
// and the driver cannot drift apart.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// findRoot walks up from the working directory to the root of the
// sturgeon module: the driver is started from the checkout root by
// run.sh and from benchmark/ by `go run -C benchmark .` and `go test`.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if strings.TrimSpace(line) == "module sturgeon" {
					return dir, nil
				}
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no sturgeon module root above the working directory")
		}
		dir = parent
	}
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec{}, s.EndToEnd...), s.PerLayer...) {
		switch {
		case !nameRE.MatchString(m.Name):
			return nil, fmt.Errorf("%s: metric name %q is not [A-Za-z0-9_.-]+", path, m.Name)
		case seen[m.Name]:
			return nil, fmt.Errorf("%s: metric %q declared twice", path, m.Name)
		case m.Better != "lower" && m.Better != "higher":
			return nil, fmt.Errorf("%s: metric %q has direction %q", path, m.Name, m.Better)
		}
		seen[m.Name] = true
	}
	return &s, nil
}

// lookup returns the declaration of a metric and whether it is an
// end-to-end one.
func (s *benchSpec) lookup(name string) (metricSpec, bool, bool) {
	for _, m := range s.EndToEnd {
		if m.Name == name {
			return m, true, true
		}
	}
	for _, m := range s.PerLayer {
		if m.Name == name {
			return m, false, true
		}
	}
	return metricSpec{}, false, false
}
