package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one value of the result line, as the builder's contract
// spells it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects one run's operation and correctness-check tallies and
// its raw metric values. Units come from BENCHMARK.json when the result
// line is rendered.
type report struct {
	attempted, failed int
	values            map[string]float64
}

func newReport() *report { return &report{values: map[string]float64{}} }

// check counts one correctness check; a failed one is described on
// standard error and makes the run incorrect.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		fmt.Fprintf(os.Stderr, "benchmark: check failed: "+format+"\n", args...)
	}
}

// ops counts operations of a load generator: attempted of them were
// sent and failed of those did not complete correctly.
func (r *report) ops(attempted, failed int) {
	r.attempted += attempted
	r.failed += failed
}

func (r *report) set(name string, v float64) { r.values[name] = v }

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// quantile returns the nearest-rank p-quantile of an ascending slice.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// median returns the middle value (mean of the two middle values for an
// even count) without disturbing xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// cpuSelf is the user+system CPU time this process has used so far.
func cpuSelf() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// setPeakRSS reports the peak resident set of a process ("self" for
// this one) from the VmHWM line of /proc/<pid>/status. The benchmark is
// Linux-only, like the /proc CPU accounting below.
func (r *report) setPeakRSS(pid string) error {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return fmt.Errorf("/proc/%s/status VmHWM: %w", pid, err)
			}
			r.set("peak_rss_mib", kb/1024)
			return nil
		}
	}
	return fmt.Errorf("/proc/%s/status has no VmHWM line", pid)
}

// procCPU is the user+system CPU time of another process, from fields
// 14 and 15 of /proc/<pid>/stat (clock ticks; Linux fixes USER_HZ at 100).
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields resume after
	// its closing parenthesis.
	s := string(data)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: short line", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad cpu fields", pid)
	}
	return time.Duration(ut+st) * (time.Second / 100), nil
}
