package sturgeon

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// orphanAllowed lists the internal packages that may ship although no
// non-test file of the module imports them, each with the reviewed
// reason it stays.
var orphanAllowed = map[string]string{
	"internal/actuator": "wire or remove: ROADMAP item 5",
}

// TestNoOrphanInternalPackages fails on an internal package that no
// non-test file of this module imports. Such a package runs only under
// its own tests, so it is dead code, and a deleted one that comes back
// would otherwise go unnoticed. Nested modules (the benchmark driver)
// are not part of this module and do not count as importers.
func TestNoOrphanInternalPackages(t *testing.T) {
	const modulePrefix = "sturgeon/"
	packages := map[string]bool{}
	imported := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if name := d.Name(); strings.HasPrefix(name, ".") || name == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		if dir := filepath.ToSlash(filepath.Dir(path)); strings.HasPrefix(dir, "internal/") {
			packages[dir] = true
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, spec := range f.Imports {
			p, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				return err
			}
			if rel, ok := strings.CutPrefix(p, modulePrefix); ok {
				imported[rel] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(packages) == 0 {
		t.Fatal("found no internal packages; is the test running from the module root?")
	}

	names := make([]string, 0, len(packages))
	for p := range packages {
		names = append(names, p)
	}
	sort.Strings(names)
	for _, p := range names {
		_, allowed := orphanAllowed[p]
		switch {
		case !imported[p] && !allowed:
			t.Errorf("%s: no non-test file imports it; delete it, or add it to orphanAllowed with a reason", p)
		case imported[p] && allowed:
			t.Errorf("%s is imported now; drop its orphanAllowed entry", p)
		}
	}
	for p := range orphanAllowed {
		if !packages[p] {
			t.Errorf("orphanAllowed names %s, which no longer exists", p)
		}
	}
}
