package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func Example_table1() {
	if err := run([]string{"-exp", "table1"}, os.Stdout); err != nil {
		fmt.Println(err)
	}
	// Output:
	// Table I — comparing Sturgeon with prior related work
	// system      online res. mgmt  co-locate LS+BE  power constraint  res. preference
	// ----------  ----------------  ---------------  ----------------  ---------------
	// Bubble                        yes
	// PARTIES     yes               yes                                LS
	// Dirigent    yes               yes                                LS
	// PowerChief  yes                                yes
	// Rubik       yes               yes
	// Heracles    yes               yes              partial
	// Sturgeon    yes               yes              yes               LS+BE
}

// TestFig2WritesCSV runs one quick-scale experiment with -out and checks
// the CSV beside the text table: same title on stdout, one header plus
// one row per co-location pair on disk.
func TestFig2WritesCSV(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run([]string{"-exp", "fig2", "-quick", "-out", dir}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "Fig. 2 — ") {
		t.Errorf("stdout does not start with the Fig. 2 table:\n%s", out.String())
	}
	csv, err := os.ReadFile(filepath.Join(dir, "fig2.csv"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(csv)), "\n")
	if len(lines) != 1+18 || !strings.HasPrefix(lines[0], "pair,budget_w,") {
		t.Errorf("fig2.csv has %d lines, header %q; want a header and 18 pairs", len(lines), lines[0])
	}
}

// TestOutputFailureIsReturned points -out at a regular file: the
// command must report the failure instead of exiting or carrying on.
func TestOutputFailureIsReturned(t *testing.T) {
	notDir := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(notDir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-exp", "fig2", "-quick", "-out", notDir}, &out); err == nil {
		t.Error("writing under a regular file succeeded")
	}
}

// TestFiguresMatchCommittedResults regenerates Fig. 2, Fig. 3 and the
// coordinator extension table at the default scale and seed and
// requires every table to equal, byte for byte, the copy committed
// under results/.
func TestFiguresMatchCommittedResults(t *testing.T) {
	dir := t.TempDir()
	for _, exp := range []string{"fig2", "fig3", "coord"} {
		if err := run([]string{"-exp", exp, "-out", dir}, io.Discard); err != nil {
			t.Fatalf("-exp %s: %v", exp, err)
		}
	}
	for _, name := range []string{"fig2.csv", "fig3_paper_pairs.csv", "fig3_frontier.csv", "extension_coordinator.csv"} {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("..", "..", "results", name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from results/%s:\n%s", name, name, got)
		}
	}
}
