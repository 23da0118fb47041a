package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// quickStart is the output of the README quick start, `sturgeon` with
// its default memcached+raytrace pair, at a small profiling sweep and a
// short run.
const quickStart = `training predictor for memcached+rt (200 samples per app)...
node: 20 cores, 1.2–2.2 GHz, 20 LLC ways | budget 100.2 W | QoS target 10 ms at p95
     t      qps    p95_ms  power_w   be_ups  config                          
     1    13800      0.43     80.7        0  <20C, 2.2F, 20L; 0C, 1.2F, 0L>  
    11    31800    318.39     93.8      240  <7C, 1.8F, 5L; 13C, 1.6F, 15L>  
    21    46200      3.17     98.3      179  <12C, 1.8F, 8L; 8C, 1.8F, 12L>  
    31    28200    115.74     94.4      240  <7C, 1.8F, 5L; 13C, 1.6F, 15L>  

controller=sturgeon  qos_rate=0.7837  norm_be_thpt=0.5046  overload_frac=0.0500  breaker_trips=0
`

// TestQuickStartModelRoundTrip runs the quick start while saving its
// predictor, then reruns it on the saved predictor: the first run must
// print the pinned output, and the second must make the same decisions
// without training.
func TestQuickStartModelRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "models")
	quick := []string{"-samples", "200", "-duration", "40"}

	var trained bytes.Buffer
	if err := run(append(quick, "-save-models", dir), &trained); err != nil {
		t.Fatal(err)
	}
	head, rest, _ := strings.Cut(quickStart, "\n")
	want := head + "\nsaved predictor to " + dir + "\n" + rest
	if got := trained.String(); got != want {
		t.Fatalf("quick start output changed\ngot:\n%s\nwant:\n%s", got, want)
	}

	var loaded bytes.Buffer
	if err := run(append(quick, "-models", dir), &loaded); err != nil {
		t.Fatal(err)
	}
	want = "loaded predictor for memcached+rt from " + dir + "\n" + rest
	if got := loaded.String(); got != want {
		t.Errorf("run on the saved predictor diverged\ngot:\n%s\nwant:\n%s", got, want)
	}
}
