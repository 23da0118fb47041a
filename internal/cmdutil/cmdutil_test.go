package cmdutil

import (
	"flag"
	"strings"
	"testing"
)

// parse registers the shared flags on a fresh flag set and parses args.
func parse(t *testing.T, args ...string) (*Common, string) {
	t.Helper()
	fs := flag.NewFlagSet("bin", flag.ContinueOnError)
	c := Register(fs, 42)
	v, err := c.Parse(fs, args)
	if err != nil {
		t.Fatal(err)
	}
	return c, v
}

func TestCommonFlagDefaults(t *testing.T) {
	c, v := parse(t)
	if c.Seed != 42 {
		t.Errorf("default seed %d, want 42", c.Seed)
	}
	if c.JSON {
		t.Error("JSON defaulted on")
	}
	if v != "" {
		t.Errorf("version line %q without -version", v)
	}
}

func TestCommonFlagParsing(t *testing.T) {
	c, _ := parse(t, "-seed", "7", "-json")
	if c.Seed != 7 {
		t.Errorf("seed %d, want 7", c.Seed)
	}
	if !c.JSON {
		t.Error("-json not parsed")
	}
}

func TestCommonComposesWithLocalFlags(t *testing.T) {
	fs := flag.NewFlagSet("bin", flag.ContinueOnError)
	extra := fs.String("extra", "", "binary-specific flag")
	c := Register(fs, 1)
	if _, err := c.Parse(fs, []string{"-extra", "x", "-seed", "9"}); err != nil {
		t.Fatal(err)
	}
	if *extra != "x" || c.Seed != 9 {
		t.Errorf("extra %q seed %d, want x and 9", *extra, c.Seed)
	}
}

func TestCommonVersionIsReturned(t *testing.T) {
	_, v := parse(t, "-version")
	if !strings.HasPrefix(v, "bin dev go") {
		t.Errorf("version line %q, want the binary name, version and Go release", v)
	}
}
