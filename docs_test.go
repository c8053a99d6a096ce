package soteria

import (
	"cmp"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
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

// bareName is a code span that is exactly one protocol or error name:
// an opcode, a wire status, an error sentinel or an error class
// (`OpBatch`, `StatusBusy`, `ErrAuth`, `ClassQuota`).
var bareName = regexp.MustCompile(`^(Op|Status|Err|Class)[A-Z]\w*$`)

// methodRef is a method expression, `pkg.(*T).M` or, with the package
// left implicit, `(*T).M`.
var methodRef = regexp.MustCompile(`(?:^|[^\w./*-])(?:([a-z][a-z0-9]*)\.)?\(\*([A-Za-z_]\w*)\)\.([A-Za-z_]\w*)`)

// TestDocReferencesResolve: every `pkg.Name` the documents put in a code
// span, where pkg is a package under internal/, names a declaration in
// that package's non-test files — a package-level name, a method or a
// struct field — and every `pkg.(*T).M` names a method M of T there (a
// bare `(*T).M`, in some package under internal/), and every span that is
// a bare protocol or error name is declared in some package under
// internal/, so a rename or deletion cannot leave the documents pointing
// at code that is gone.
// Fenced code blocks are skipped: they are commands and examples, not
// references.
func TestDocReferencesResolve(t *testing.T) {
	decls := map[string]map[string]bool{} // package dir -> declared names
	anywhere := map[string]bool{}         // names declared in any of them
	dirs, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if d.IsDir() {
			decls[d.Name()] = declaredNames(t, filepath.Join("internal", d.Name()))
			for name := range decls[d.Name()] {
				anywhere[name] = true
			}
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
			if bareName.MatchString(span) && !anywhere[span] {
				t.Errorf("%s:%d: `%s` is declared in no package under internal/", doc, line, span)
			}
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

// recipeDocs are the documents whose `go run ./cmd/<name>` recipes
// TestRecipesNameRealCommandsAndFlags keeps runnable.
var recipeDocs = []string{"README.md", "EXPERIMENTS.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"}

// goRun is a `go run ./cmd/<name>` recipe; the capture is the command
// directory, and the rest of the text up to a shell operator, a comment
// or the end of the snippet is its argument list.
var goRun = regexp.MustCompile(`go run \./cmd/([\w-]+)([^|;&<>#()` + "`" + `]*)`)

// flagArg is one -flag or --flag=value argument; the capture is the name.
var flagArg = regexp.MustCompile(`^--?([A-Za-z][\w-]*)`)

// TestRecipesNameRealCommandsAndFlags: every `go run ./cmd/<name>` in
// the documents — in fenced blocks (with backslash continuations joined)
// and in inline code spans — names a directory under cmd/, and every
// -flag it passes is declared by a flag constructor call
// (`flag.Int("name", …)`, `fs.BoolVar(&v, "name", …)`) in that command's
// non-test files, so a removed command or flag cannot leave a recipe
// behind that no longer runs.
func TestRecipesNameRealCommandsAndFlags(t *testing.T) {
	flags := map[string]map[string]bool{} // command -> declared flags
	for _, doc := range recipeDocs {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, snip := range codeSnippets(string(src)) {
			for _, m := range goRun.FindAllStringSubmatch(snip.text, -1) {
				cmdName := m[1]
				declared, ok := flags[cmdName]
				if !ok {
					declared = declaredFlags(t, filepath.Join("cmd", cmdName))
					flags[cmdName] = declared
				}
				if declared == nil {
					t.Errorf("%s:%d: `go run ./cmd/%s`: there is no directory cmd/%s", doc, snip.line, cmdName, cmdName)
					continue
				}
				for _, arg := range strings.Fields(m[2]) {
					if f := flagArg.FindStringSubmatch(arg); f != nil && !declared[f[1]] {
						t.Errorf("%s:%d: `go run ./cmd/%s` passes -%s, which cmd/%s does not declare", doc, snip.line, cmdName, f[1], cmdName)
					}
				}
			}
		}
	}
}

// snippet is a piece of a Markdown document that holds code: one fenced
// line (continuations joined) or one inline code span (wraps joined).
type snippet struct {
	line int
	text string
}

// codeSnippets splits a Markdown document into its code: each line of a
// fenced block, with a trailing-backslash continuation joined to the next
// line, and each inline code span of the text outside the fences.
func codeSnippets(src string) []snippet {
	var out []snippet
	lines := strings.Split(src, "\n")
	fenced, cont := false, -1
	for i, line := range lines {
		fence := strings.HasPrefix(strings.TrimSpace(line), "```")
		if fence || fenced {
			lines[i] = ""
		}
		if fence {
			fenced, cont = !fenced, -1
			continue
		}
		if !fenced {
			continue
		}
		text := strings.TrimSuffix(strings.TrimSpace(line), "\\")
		if cont >= 0 {
			out[cont].text += " " + text
		} else {
			out = append(out, snippet{line: i + 1, text: text})
		}
		cont = -1
		if strings.HasSuffix(strings.TrimSpace(line), "\\") {
			cont = len(out) - 1
		}
	}
	text := strings.Join(lines, "\n")
	for _, m := range codeSpan.FindAllStringSubmatchIndex(text, -1) {
		out = append(out, snippet{
			line: strings.Count(text[:m[0]], "\n") + 1,
			text: strings.ReplaceAll(text[m[2]:m[3]], "\n", " "),
		})
	}
	return out
}

// declaredFlags lists the flag names dir's non-test files declare through
// a flag constructor — X.Bool/Int/String/…("name", …) or
// X.BoolVar/IntVar/…(&v, "name", …) on the flag package or a FlagSet —
// or returns nil when dir does not exist.
func declaredFlags(t *testing.T, dir string) map[string]bool {
	t.Helper()
	if _, err := os.Stat(dir); err != nil {
		return nil
	}
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
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				arg := 0
				switch sel.Sel.Name {
				case "Bool", "Int", "Int64", "Uint", "Uint64", "String", "Float64", "Duration", "Func", "BoolFunc":
				case "BoolVar", "IntVar", "Int64Var", "UintVar", "Uint64Var", "StringVar", "Float64Var", "DurationVar", "Var", "TextVar":
					arg = 1
				default:
					return true
				}
				if len(call.Args) > arg {
					if lit, ok := call.Args[arg].(*ast.BasicLit); ok && lit.Kind == token.STRING {
						if name, err := strconv.Unquote(lit.Value); err == nil {
							names[name] = true
						}
					}
				}
				return true
			})
		}
	}
	return names
}
