package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// unreferencedAllowed lists the exported functions and methods under
// internal/ that no non-test file references, each with the reason it
// stays. A key is "dir.Func" or "dir.Recv.Method".
var unreferencedAllowed = map[string]string{
	"internal/query.rowSorter.Less": "sort.Interface method, called by sort.Sort",

	"internal/storage/diskstore/crashtest.ChildMain":       "crash-test entry point: the test binary re-executes itself as the child it kills",
	"internal/storage/diskstore/crashtest.KillLoop":        "crash-test entry point: the kill-and-recover sweep",
	"internal/storage/diskstore/crashtest.OracleRun":       "crash-test entry point: the oracle harness",
	"internal/storage/diskstore/crashtest.TruncationSweep": "crash-test entry point: the deterministic WAL truncation sweep",

	"internal/optimizer.FromStorage":           "statistics read from a built store; ROADMAP item 24 gives it a caller",
	"internal/ontology.RandomOntology":         "random ontologies for property tests in three packages (ROADMAP item 19)",
	"internal/optimizer.RelationCentricGreedy": "the relation-centric ablation, used by the root benchmarks and greedy tests (ROADMAP item 19)",
	"internal/core.PGS.Node":                   "schema lookup used by tests only (ROADMAP item 19)",
	"internal/query.Run":                       "Prepare and Collect in one call, used by tests only (ROADMAP item 19)",
}

// TestExportedCodeIsReferenced fails when an exported function or method
// declared in a non-test file under internal/ has no reference in any
// non-test file of the module (cmd/, benchmark/ and examples/ included)
// and no entry in unreferencedAllowed. Without type information a function
// counts as referenced where its package's files name it or another file
// selects it through an import of its package; a method counts as
// referenced where any non-test file selects, or an interface declares, a
// method of that name. So a method is caught only once no type anywhere
// uses its name.
func TestExportedCodeIsReferenced(t *testing.T) {
	type decl struct{ dir, recv, name string }
	var decls []decl
	funcRefs := map[string]bool{}   // "dir.Name": a call or value of a package-level function
	methodRefs := map[string]bool{} // "Name": a selector or an interface method
	pkgNames := map[string]string{} // dir -> package name
	fset := token.NewFileSet()
	files := map[string][]*ast.File{} // dir -> non-test files
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		files[dir] = append(files[dir], f)
		pkgNames[dir] = f.Name.Name
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for dir, dirFiles := range files {
		for _, f := range dirFiles {
			imports := map[string]string{} // local name -> dir
			for _, im := range f.Imports {
				ip, _ := strconv.Unquote(im.Path.Value)
				rel, ok := strings.CutPrefix(ip, "repro/")
				if !ok {
					continue
				}
				name := path.Base(rel)
				if n, ok := pkgNames[rel]; ok {
					name = n
				}
				if im.Name != nil {
					name = im.Name.Name
				}
				imports[name] = rel
			}
			declared := map[*ast.Ident]bool{}
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				declared[fn.Name] = true
				if !strings.HasPrefix(dir, "internal/") || !fn.Name.IsExported() {
					continue
				}
				dc := decl{dir: dir, name: fn.Name.Name}
				if fn.Recv != nil {
					dc.recv = recvName(fn.Recv.List[0].Type)
				}
				decls = append(decls, dc)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					methodRefs[n.Sel.Name] = true
					if x, ok := n.X.(*ast.Ident); ok {
						if imp, ok := imports[x.Name]; ok {
							funcRefs[imp+"."+n.Sel.Name] = true
						}
					}
				case *ast.InterfaceType:
					for _, m := range n.Methods.List {
						for _, name := range m.Names {
							methodRefs[name.Name] = true
						}
					}
				case *ast.Ident:
					if !declared[n] {
						funcRefs[dir+"."+n.Name] = true
					}
				}
				return true
			})
		}
	}
	var missing []string
	seen := map[string]bool{}
	for _, d := range decls {
		key := d.dir + "." + d.name
		referenced := funcRefs[key]
		if d.recv != "" {
			key = d.dir + "." + d.recv + "." + d.name
			referenced = methodRefs[d.name]
		}
		seen[key] = true
		_, allowed := unreferencedAllowed[key]
		switch {
		case !referenced && !allowed:
			missing = append(missing, key)
		case referenced && allowed:
			t.Errorf("%s is referenced now; delete its unreferencedAllowed entry", key)
		}
	}
	for key := range unreferencedAllowed {
		if !seen[key] {
			t.Errorf("unreferencedAllowed names %s, which is not declared", key)
		}
	}
	sort.Strings(missing)
	for _, key := range missing {
		t.Errorf("%s is exported but no non-test file references it: delete it, or allowlist it with a reason", key)
	}
}

// recvName is the type name of a method receiver: T, *T, T[P] or *T[P].
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
