package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"text/tabwriter"
)

// header records what a reader needs to place a set of numbers.
type header struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	// StateFS is the filesystem under the daemon's state directory: the
	// fsync that dominates ctl-durable is that filesystem's.
	StateFS string `json:"state_fs"`
	Quick   bool   `json:"quick,omitempty"`
}

func newHeader(cfg runConfig) header {
	h := header{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: "unknown", Seed: cfg.seed, Seconds: cfg.seconds, StateFS: fsType(cfg.root), Quick: cfg.quick}
	// The driver's checkouts are not git repositories; say so rather
	// than fail.
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = cfg.root
	if out, err := cmd.Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

func (h header) print(w io.Writer) {
	fmt.Fprintf(w, "# benchmark: nproc=%d GOMAXPROCS=%d %s commit=%s seed=%d seconds=%g state_fs=%s quick=%v\n",
		h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.Commit, h.Seed, h.Seconds, h.StateFS, h.Quick)
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return "0x" + strconv.FormatUint(uint64(uint32(st.Type)), 16)
}

// suiteRun is one child's result, tagged with what it ran.
type suiteRun struct {
	Workload string `json:"workload"`
	Traced   bool   `json:"traced"`
	Seed     int64  `json:"seed"`
	result
}

// suiteDoc is the -out file and the input of -compare.
type suiteDoc struct {
	Schema string     `json:"schema"`
	Header header     `json:"header"`
	Runs   []suiteRun `json:"runs"`
}

const suiteSchema = "sturgeon/benchresults/v1"

// runSuite runs every workload of BENCHMARK.json, each run in a fresh
// child process of this binary so that no workload inherits another's
// heap, caches or open connections: first untraced, then — with -trace
// DIR — traced. It prints one row per metric and exits non-zero if any
// run was incorrect.
func runSuite(cfg runConfig, spec *benchSpec, runs int, out string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	doc := suiteDoc{Schema: suiteSchema, Header: newHeader(cfg)}
	doc.Header.print(stdout)
	fmt.Fprintln(stdout, "# host-time metrics carry the sandbox's noise; sim.* and every *.calls count repeat exactly for a seed")
	passes := []bool{false}
	if cfg.traced {
		passes = append(passes, true)
	}
	code := 0
	for _, traced := range passes {
		for _, w := range spec.Workloads {
			for k := 0; k < runs; k++ {
				run := suiteRun{Workload: w.Name, Traced: traced, Seed: cfg.seed + int64(k)}
				args := []string{"--workload", w.Name, "--seed", strconv.FormatInt(run.Seed, 10),
					"--seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "--trace", "0"}
				if traced {
					args[len(args)-1] = "1"
					if cfg.traceDir != "" {
						args[len(args)-1] = cfg.traceDir
					}
				}
				if cfg.quick {
					args = append(args, "--quick")
				}
				run.result = runChild(cfg, self, args, stderr)
				if !run.Correct {
					code = 1
				}
				doc.Runs = append(doc.Runs, run)
				printRun(stdout, spec, run)
			}
		}
	}
	if out != "" {
		data, err := json.MarshalIndent(doc, "", "  ")
		if err == nil {
			err = os.WriteFile(out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	return code
}

// runChild runs one workload in a child process and parses the last
// line of its output. A child that dies without a result still appears
// in the report: as one attempted, failed operation — or, when it got
// as far as printing its tallies, with all of them counted as failed.
func runChild(cfg runConfig, self string, args []string, stderr io.Writer) result {
	cmd := exec.CommandContext(cfg.ctx, self, args...)
	cmd.Stderr = stderr
	var buf bytes.Buffer
	cmd.Stdout = &buf
	runErr := cmd.Run()
	var last string
	for sc := bufio.NewScanner(&buf); sc.Scan(); {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil || res.Attempted < 1 {
		res = result{Attempted: 1, Metrics: map[string]metric{}}
		runErr = fmt.Errorf("no result line (%v)", runErr)
	}
	if runErr != nil {
		fmt.Fprintf(stderr, "benchmark: child %v: %v\n", args, runErr)
		res.Correct, res.Failed = false, res.Attempted
	}
	return res
}

func printRun(w io.Writer, spec *benchSpec, run suiteRun) {
	names := make([]string, 0, len(run.Metrics))
	for name := range run.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	for _, name := range names {
		m := run.Metrics[name]
		if _, e2e, _ := spec.lookup(name); !e2e && m.Value == 0 {
			continue // a layer this workload never enters
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\n", run.Workload, name, strconv.FormatFloat(m.Value, 'g', 6, 64), m.Unit)
	}
	fmt.Fprintf(tw, "%s\t%s\t%d/%d\t%s\n", run.Workload, "failed/attempted", run.Failed, run.Attempted, "count")
	tw.Flush()
}
