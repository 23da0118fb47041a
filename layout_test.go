package sturgeon

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

const modulePrefix = "sturgeon/"

// orphanAllowed lists the internal packages that may ship although no
// non-test file of the module imports them, each with the reviewed
// reason it stays.
var orphanAllowed = map[string]string{}

// exportAllowed lists the exported top-level identifiers ("dir.Name")
// that may ship although no non-test code of the module references them,
// each with the reviewed reason it stays.
var exportAllowed = map[string]string{
	"internal/cluster.EngineStep":    "the documented zero-value default of Cluster.Engine",
	"internal/coordinator.NewClient": "the HTTP transport's constructor for out-of-process nodes",
	"internal/faults.NewNet":         "seeded network-chaos generator of the partition battery",
	"internal/faults.DefaultNetSpec": "the partition battery's standard chaos mix, shared by the faults and cluster tests",
	"internal/faults.NewCoordKill":   "seeded coordinator-kill generator of the partition battery",
	"internal/faults.Manual":         "scripted fault plans; the benchmark builds its crash schedule with it",
	"internal/invariant.New":         "constructed by the benchmark's fleet workload",
	"internal/telemetry.NewWindow":   "constructed by the benchmark's telemetry.window.op_ns probe",
	"internal/mlkit.SelectFeatures":  "the paper's §V-C Lasso feature selection, demonstrated in the models tests",
}

// moduleFile is one parsed non-test Go file of this module; dir is its
// package directory relative to the module root, slash-separated.
type moduleFile struct {
	dir  string
	file *ast.File
}

// parseModule parses every non-test Go file of this module. Hidden
// directories, testdata and nested modules (the benchmark driver) are
// not part of this module and are skipped.
func parseModule(t *testing.T, mode parser.Mode) []moduleFile {
	t.Helper()
	var files []moduleFile
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
		f, err := parser.ParseFile(fset, path, nil, mode)
		if err != nil {
			return err
		}
		files = append(files, moduleFile{dir: filepath.ToSlash(filepath.Dir(path)), file: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("found no Go files; is the test running from the module root?")
	}
	return files
}

// TestNoOrphanInternalPackages fails on an internal package that no
// non-test file of this module imports. Such a package runs only under
// its own tests, so it is dead code, and a deleted one that comes back
// would otherwise go unnoticed. Nested modules (the benchmark driver)
// are not part of this module and do not count as importers.
func TestNoOrphanInternalPackages(t *testing.T) {
	packages := map[string]bool{}
	imported := map[string]bool{}
	for _, mf := range parseModule(t, parser.ImportsOnly) {
		if strings.HasPrefix(mf.dir, "internal/") {
			packages[mf.dir] = true
		}
		for _, spec := range mf.file.Imports {
			p, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			if rel, ok := strings.CutPrefix(p, modulePrefix); ok {
				imported[rel] = true
			}
		}
	}

	for _, p := range sortedKeys(packages) {
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

// TestNoUnreferencedExports fails on an exported top-level func, type,
// var or const that no non-test code of this module references, either
// as pkg.Name (import alias resolved) or as a bare identifier in its own
// package; the declaration itself, including the methods of a declared
// type, does not count. Methods are exempt, because whether one
// satisfies an interface cannot be decided syntactically, and references
// from nested modules (the benchmark driver) do not count.
func TestNoUnreferencedExports(t *testing.T) {
	files := parseModule(t, parser.SkipObjectResolution)
	pkgName := map[string]string{}
	declared := map[string]bool{}
	for _, mf := range files {
		pkgName[mf.dir] = mf.file.Name.Name
		for _, d := range mf.file.Decls {
			eachDecl(d, func(names []*ast.Ident, _ []ast.Node) {
				for _, n := range names {
					if n.IsExported() {
						declared[mf.dir+"."+n.Name] = true
					}
				}
			})
		}
	}

	referenced := map[string]bool{}
	for _, mf := range files {
		imports := map[string]string{} // local package name → module dir
		for _, spec := range mf.file.Imports {
			p, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			if dir, ok := strings.CutPrefix(p, modulePrefix); ok {
				name := pkgName[dir]
				if spec.Name != nil {
					name = spec.Name.Name
				}
				imports[name] = dir
			}
		}
		for _, d := range mf.file.Decls {
			eachDecl(d, func(names []*ast.Ident, body []ast.Node) {
				self := map[string]bool{}
				for _, n := range names {
					self[n.Name] = true
				}
				var visit func(ast.Node) bool
				visit = func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.SelectorExpr:
						if x, ok := n.X.(*ast.Ident); ok {
							if dir, ok := imports[x.Name]; ok {
								referenced[dir+"."+n.Sel.Name] = true
								return false
							}
						}
						// A field or method selector names no top-level
						// identifier; only its operand can.
						ast.Inspect(n.X, visit)
						return false
					case *ast.Field:
						if n.Type != nil {
							ast.Inspect(n.Type, visit)
						}
						return false
					case *ast.Ident:
						if !self[n.Name] {
							referenced[mf.dir+"."+n.Name] = true
						}
					}
					return true
				}
				for _, b := range body {
					ast.Inspect(b, visit)
				}
			})
		}
	}

	for _, key := range sortedKeys(declared) {
		_, allowed := exportAllowed[key]
		switch {
		case !referenced[key] && !allowed:
			t.Errorf("%s: no non-test code outside its declaration references it; delete it, unexport it, or add it to exportAllowed with a reason", key)
		case referenced[key] && allowed:
			t.Errorf("%s is referenced now; drop its exportAllowed entry", key)
		}
	}
	for key := range exportAllowed {
		if !declared[key] {
			t.Errorf("exportAllowed names %s, which is no longer declared", key)
		}
	}
}

// eachDecl calls fn once per top-level declaration unit of d with the
// names it declares and the nodes that may reference other identifiers.
// A method belongs to its receiver type's declaration: it is reported
// under the receiver type's name, so the type's own methods never count
// as references to it. Imports contribute nothing.
func eachDecl(d ast.Decl, fn func(names []*ast.Ident, body []ast.Node)) {
	switch d := d.(type) {
	case *ast.FuncDecl:
		names := []*ast.Ident{d.Name}
		body := []ast.Node{d.Type}
		if d.Recv != nil {
			names = []*ast.Ident{receiverType(d.Recv.List[0].Type)}
			body = append(body, d.Recv)
		}
		if d.Body != nil {
			body = append(body, d.Body)
		}
		fn(names, body)
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				body := []ast.Node{s.Type}
				if s.TypeParams != nil {
					body = append(body, s.TypeParams)
				}
				fn([]*ast.Ident{s.Name}, body)
			case *ast.ValueSpec:
				var body []ast.Node
				if s.Type != nil {
					body = append(body, s.Type)
				}
				for _, v := range s.Values {
					body = append(body, v)
				}
				fn(s.Names, body)
			}
		}
	}
}

// receiverType returns the base type name of a method receiver
// (T, *T, T[P] or *T[P]).
func receiverType(x ast.Expr) *ast.Ident {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.ParenExpr:
			x = e.X
		default:
			return e.(*ast.Ident)
		}
	}
}

// layoutRoots are the directories whose every subdirectory README.md's
// layout block lists.
var layoutRoots = map[string]bool{"internal": true, "cmd": true, "examples": true}

// TestReadmeLayoutMatchesTree fails when README.md's layout block omits a
// directory under internal/, cmd/ or examples/, or names one that does
// not exist.
func TestReadmeLayoutMatchesTree(t *testing.T) {
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(data), "## Layout\n")
	if ok {
		_, rest, ok = strings.Cut(rest, "```\n")
	}
	block, _, closed := strings.Cut(rest, "```")
	if !ok || !closed {
		t.Fatal("README.md has no fenced block under its ## Layout heading")
	}
	listed := map[string]bool{}
	for _, line := range strings.Split(block, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		entry := strings.TrimSuffix(fields[0], "/")
		if root, _, ok := strings.Cut(entry, "/"); ok && layoutRoots[root] {
			listed[entry] = true
		}
	}
	onDisk := map[string]bool{}
	for root := range layoutRoots {
		entries, err := os.ReadDir(root)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() {
				onDisk[root+"/"+e.Name()] = true
			}
		}
	}
	for _, dir := range sortedKeys(onDisk) {
		if !listed[dir] {
			t.Errorf("README.md layout omits %s", dir)
		}
	}
	for _, dir := range sortedKeys(listed) {
		if !onDisk[dir] {
			t.Errorf("README.md layout lists %s, which does not exist", dir)
		}
	}
}

// maxExamples bounds examples/: an example earns its directory only by
// showing what no command already does.
const maxExamples = 3

// mainPackages returns the directories under cmd/ and examples/ that
// hold a main package, mapped to whether they also hold a test file.
func mainPackages(t *testing.T) map[string]bool {
	t.Helper()
	fset := token.NewFileSet()
	mains := map[string]bool{}
	for _, root := range []string{"cmd", "examples"} {
		dirs, err := os.ReadDir(root)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range dirs {
			if !d.IsDir() {
				continue
			}
			dir := root + "/" + d.Name()
			files, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			isMain, tested := false, false
			for _, f := range files {
				name := f.Name()
				switch {
				case strings.HasSuffix(name, "_test.go"):
					tested = true
				case strings.HasSuffix(name, ".go"):
					af, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.PackageClauseOnly)
					if err != nil {
						t.Fatal(err)
					}
					isMain = isMain || af.Name.Name == "main"
				}
			}
			if isMain {
				mains[dir] = tested
			}
		}
	}
	return mains
}

// goRunPath matches the package path of a `go run ./PATH` command line.
var goRunPath = regexp.MustCompile(`go run \./([\w./-]+)`)

// TestEntryPointsRunUnderGoTest fails when a main package under cmd/ or
// examples/ has no test file, so `go test ./...` would only compile it;
// when examples/ outgrows maxExamples; and when a `go run ./PATH` in the
// documentation names no main package of this module.
func TestEntryPointsRunUnderGoTest(t *testing.T) {
	mains := mainPackages(t)
	examples := 0
	for _, dir := range sortedKeys(mains) {
		if !mains[dir] {
			t.Errorf("%s: main package with no _test.go; give it a run function and a test that executes it", dir)
		}
		if strings.HasPrefix(dir, "examples/") {
			examples++
		}
	}
	if examples > maxExamples {
		t.Errorf("examples/ holds %d programs, more than %d; fold the ones a command already covers into it", examples, maxExamples)
	}
	for _, doc := range []string{"README.md", "EXPERIMENTS.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range goRunPath.FindAllStringSubmatch(string(data), -1) {
			if _, ok := mains[strings.TrimSuffix(m[1], "/")]; !ok {
				t.Errorf("%s: %q names no main package under cmd/ or examples/", doc, m[0])
			}
		}
	}
}

func sortedKeys(m map[string]bool) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
