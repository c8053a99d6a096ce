package soteria

import (
	"cmp"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// codeSpan is one inline code span of a Markdown paragraph; it may wrap
// a line.
var codeSpan = regexp.MustCompile("`((?:[^`\n]|\n[^`\n])+)`")

// pkgRef is a pkg.Name reference inside a code span. The prefix may not
// follow a path, another selector or an identifier character, so
// `internal/chaos/device.go` and `x.nvm.Line` name nothing.
var pkgRef = regexp.MustCompile(`(?:^|[^\w./*-])([a-z][a-z0-9]*)\.([A-Za-z_]\w*)`)

// methodRef is a method expression, `pkg.(*T).M` or, with the package
// left implicit, `(*T).M`.
var methodRef = regexp.MustCompile(`(?:^|[^\w./*-])(?:([a-z][a-z0-9]*)\.)?\(\*([A-Za-z_]\w*)\)\.([A-Za-z_]\w*)`)

// TestDocReferencesResolve: every `pkg.Name` the documents put in a code
// span, where pkg is a package under internal/, names a declaration in
// that package's non-test files — a package-level name, a method or a
// struct field — and every `pkg.(*T).M` names a method M of T there (a
// bare `(*T).M`, in some package under internal/), so a rename or
// deletion cannot leave the documents pointing at code that is gone.
// Fenced code blocks are skipped: they are commands and examples, not
// references.
func TestDocReferencesResolve(t *testing.T) {
	decls := map[string]map[string]bool{} // package dir -> declared names
	dirs, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if d.IsDir() {
			decls[d.Name()] = declaredNames(t, filepath.Join("internal", d.Name()))
		}
	}
	for _, doc := range []string{"DESIGN.md", "EXPERIMENTS.md", "README.md"} {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		// Blank the fenced blocks, keeping the line numbers.
		lines := strings.Split(string(src), "\n")
		fenced := false
		for i, line := range lines {
			fence := strings.HasPrefix(strings.TrimSpace(line), "```")
			fenced = fenced != fence
			if fence || fenced {
				lines[i] = ""
			}
		}
		text := strings.Join(lines, "\n")
		for _, m := range codeSpan.FindAllStringSubmatchIndex(text, -1) {
			line := strings.Count(text[:m[0]], "\n") + 1
			span := strings.ReplaceAll(text[m[2]:m[3]], "\n", " ")
			for _, ref := range pkgRef.FindAllStringSubmatch(span, -1) {
				// `runner.go` is a file name, not a reference.
				names, ok := decls[ref[1]]
				if ok && ref[2] != "go" && !names[ref[2]] {
					t.Errorf("%s:%d: `%s` names %s.%s, which internal/%s does not declare", doc, line, span, ref[1], ref[2], ref[1])
				}
			}
			for _, ref := range methodRef.FindAllStringSubmatch(span, -1) {
				// Types outside internal/ (`aes.(*Block).Encrypt`, the
				// runtime's `(*_panic).nextDefer`) are not checked.
				method, ours, found := ref[2]+"."+ref[3], false, false
				for pkg, names := range decls {
					if ref[1] == "" || ref[1] == pkg {
						ours = ours || names[ref[2]]
						found = found || names[method]
					}
				}
				if ours && !found {
					t.Errorf("%s:%d: `%s` names method %s, which internal/%s does not declare", doc, line, span, method, cmp.Or(ref[1], "*"))
				}
			}
		}
	}
}

// declaredNames lists what dir's non-test Go files declare at package
// level — functions, types, variables, constants — plus the methods and
// struct fields a document may name as pkg.Name (`device.ExecBatch`,
// `memctrl.fills`), and each method once more as T.M.
func declaredNames(t *testing.T, dir string) map[string]bool {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					names[d.Name.Name] = true
					if d.Recv != nil {
						recv := d.Recv.List[0].Type
						if star, ok := recv.(*ast.StarExpr); ok {
							recv = star.X
						}
						if id, ok := recv.(*ast.Ident); ok {
							names[id.Name+"."+d.Name.Name] = true
						}
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							names[s.Name.Name] = true
							if st, ok := s.Type.(*ast.StructType); ok {
								for _, f := range st.Fields.List {
									for _, id := range f.Names {
										names[id.Name] = true
									}
								}
							}
						case *ast.ValueSpec:
							for _, id := range s.Names {
								names[id.Name] = true
							}
						}
					}
				}
			}
		}
	}
	return names
}
