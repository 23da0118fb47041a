// Package cmdutil is the flag surface the sturgeon binaries share:
// every command (cmd/repro, cmd/sturgeond) takes -seed,
// -json and -version with one spelling and one meaning, registered
// through here instead of hand-rolled per binary. Main is the one way a
// binary's main calls its testable run function.
package cmdutil

import (
	"errors"
	"flag"
	"fmt"
	"io"
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

// Register installs the shared flags on fs. Binaries register their own
// flags around it, then call Parse.
func Register(fs *flag.FlagSet, defaultSeed int64) *Common {
	c := &Common{}
	fs.Int64Var(&c.Seed, "seed", defaultSeed, "deterministic base seed")
	fs.BoolVar(&c.JSON, "json", false, "emit machine-readable JSON instead of text output")
	fs.BoolVar(&c.showVersion, "version", false, "print version and exit")
	return c
}

// Parse parses args into fs. When -version was given it returns the
// version line, which the binary prints before exiting 0 without doing
// anything else; otherwise it returns "".
func (c *Common) Parse(fs *flag.FlagSet, args []string) (string, error) {
	if err := fs.Parse(args); err != nil {
		return "", err
	}
	if !c.showVersion {
		return "", nil
	}
	return fmt.Sprintf("%s %s %s %s/%s", filepath.Base(fs.Name()), version,
		runtime.Version(), runtime.GOOS, runtime.GOARCH), nil
}

// Main runs a command's run function on the process arguments and
// standard output, and exits 1 after printing the error if it fails.
// -h is not a failure: the flag set has already printed the usage.
func Main(run func(args []string, stdout io.Writer) error) {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(os.Stderr, "%s: %v\n", filepath.Base(os.Args[0]), err)
		os.Exit(1)
	}
}
