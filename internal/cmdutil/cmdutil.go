// Package cmdutil is the flag surface the sturgeon binaries share:
// every command (cmd/repro, cmd/sturgeond) takes -seed,
// -json and -version with one spelling and one meaning, registered
// through here instead of hand-rolled per binary.
package cmdutil

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// version marks source builds; release builds stamp it via
// -ldflags "-X sturgeon/internal/cmdutil.version=v1.2.3".
var version = "dev"

// Common carries the parsed shared flags.
type Common struct {
	// Seed is the deterministic base seed (-seed).
	Seed int64
	// JSON requests machine-readable output instead of text tables
	// (-json).
	JSON bool

	showVersion bool
}

// Register installs the shared flags on the default flag set. Binaries
// register their own flags around it, then call Parse.
func Register(defaultSeed int64) *Common {
	c := &Common{}
	flag.Int64Var(&c.Seed, "seed", defaultSeed, "deterministic base seed")
	flag.BoolVar(&c.JSON, "json", false, "emit machine-readable JSON instead of text output")
	flag.BoolVar(&c.showVersion, "version", false, "print version and exit")
	return c
}

// Parse parses the command line and handles -version (print and exit 0).
func (c *Common) Parse() {
	flag.Parse()
	if c.showVersion {
		fmt.Printf("%s %s %s %s/%s\n", filepath.Base(os.Args[0]), version,
			runtime.Version(), runtime.GOOS, runtime.GOARCH)
		os.Exit(0)
	}
}
