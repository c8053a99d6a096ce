package soteria

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// ciFuzz is one fuzz smoke step of the CI workflow: the target named by
// -fuzz (bare or quoted, with an optional $ anchor) and the package path
// the same command runs it in.
var ciFuzz = regexp.MustCompile(`-fuzz='?(Fuzz\w+)\$?'?\s.*\s\./(\S+?)/?\s*$`)

// TestEveryFuzzTargetRunsInCI: the fuzz targets the tree's _test.go files
// declare and the ones .github/workflows/ci.yml fuzzes are the same set,
// each in its own package, so a new or renamed target cannot leave CI
// silently and a CI step cannot name a target that is gone.
func TestEveryFuzzTargetRunsInCI(t *testing.T) {
	var declared []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Fuzz") {
				declared = append(declared, filepath.ToSlash(filepath.Dir(path))+" "+fn.Name.Name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	src, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	var inCI []string
	for _, line := range strings.Split(string(src), "\n") {
		if !strings.Contains(line, "-fuzz=") {
			continue
		}
		m := ciFuzz.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("ci.yml: cannot read the target and package of %q", strings.TrimSpace(line))
		}
		inCI = append(inCI, m[2]+" "+m[1])
	}

	slices.Sort(declared)
	slices.Sort(inCI)
	for _, d := range declared {
		if !slices.Contains(inCI, d) {
			t.Errorf("fuzz target %s is declared but no ci.yml step fuzzes it", d)
		}
	}
	for _, c := range inCI {
		if !slices.Contains(declared, c) {
			t.Errorf("ci.yml fuzzes %s, which no _test.go file declares", c)
		}
	}
	if len(declared) == 0 {
		t.Fatal("found no fuzz targets; the walk is broken")
	}
	t.Logf("%d fuzz targets declared, %d fuzzed in CI", len(declared), len(inCI))
}
