package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCISelectorsNameTests guards the CI workflow against tests that were
// renamed or deleted: every alternative of every -run, -bench and -fuzz
// pattern in .github/workflows/ci.yml must select a declared test
// function of the matching kind in the packages its command runs. An
// alternative selects the functions its name prefixes, or exactly the one
// it names when it ends in $; "xxx" is the run-nothing idiom and is
// skipped.
func TestCISelectorsNameTests(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	commands := 0
	for _, line := range strings.Split(string(data), "\n") {
		_, cmd, ok := strings.Cut(line, "go test ")
		if !ok || strings.HasPrefix(strings.TrimSpace(line), "#") {
			continue
		}
		cmd, _, _ = strings.Cut(cmd, "&&")
		commands++
		args := splitArgs(cmd)
		var pkgs []string
		selectors := map[string][]string{} // flag -> patterns
		for i := 0; i < len(args); i++ {
			a := args[i]
			switch {
			case a == "-run" || a == "-bench" || a == "-fuzz":
				if i+1 < len(args) {
					selectors[a] = append(selectors[a], args[i+1])
					i++
				}
			case strings.HasPrefix(a, "-run=") || strings.HasPrefix(a, "-bench=") || strings.HasPrefix(a, "-fuzz="):
				flag, pat, _ := strings.Cut(a, "=")
				selectors[flag] = append(selectors[flag], pat)
			case strings.HasPrefix(a, "."):
				pkgs = append(pkgs, a)
			}
		}
		if len(pkgs) == 0 {
			pkgs = []string{"."}
		}
		funcs := declaredTests(t, pkgs)
		kinds := map[string][]string{"-run": {"Test", "Fuzz"}, "-bench": {"Benchmark"}, "-fuzz": {"Fuzz"}}
		for flag, pats := range selectors {
			for _, pat := range pats {
				for _, alt := range strings.Split(pat, "|") {
					alt = strings.TrimPrefix(alt, "^")
					exact := strings.HasSuffix(alt, "$")
					alt = strings.TrimSuffix(alt, "$")
					alt, _, _ = strings.Cut(alt, "/") // a subtest path selects its top-level test
					if alt == "xxx" {
						continue
					}
					if !regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_]*$`).MatchString(alt) {
						t.Errorf("ci.yml: %s alternative %q in %q is not a plain test name", flag, alt, cmd)
						continue
					}
					if !selectsTest(funcs, alt, exact, kinds[flag]) {
						t.Errorf("ci.yml: %s %q selects no declared %s function in %v (command %q)",
							flag, alt, strings.Join(kinds[flag], "/"), pkgs, strings.TrimSpace(cmd))
					}
				}
			}
		}
	}
	if commands == 0 {
		t.Fatal("ci.yml holds no go test command; the guard checks nothing")
	}
}

// selectsTest reports whether alt selects a function with one of the
// kind prefixes: the one it names if exact, else any it prefixes.
func selectsTest(funcs []string, alt string, exact bool, kinds []string) bool {
	for _, f := range funcs {
		kindOK := false
		for _, k := range kinds {
			kindOK = kindOK || strings.HasPrefix(f, k)
		}
		if kindOK && (f == alt || !exact && strings.HasPrefix(f, alt)) {
			return true
		}
	}
	return false
}

// declaredTests returns the Test, Benchmark and Fuzz functions declared
// in the _test.go files of the go test package patterns pkgs ("./x" or
// "./x/...").
func declaredTests(t *testing.T, pkgs []string) []string {
	t.Helper()
	var names []string
	fset := token.NewFileSet()
	for _, pkg := range pkgs {
		dir, recursive := strings.CutSuffix(pkg, "/...")
		err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if path != dir && (!recursive || strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
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
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
					names = append(names, fn.Name.Name)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", pkg, err)
		}
	}
	return names
}

// splitArgs splits a shell command line on spaces, keeping single-quoted
// words whole and unquoted.
func splitArgs(cmd string) []string {
	var args []string
	var cur strings.Builder
	quoted, inWord := false, false
	for _, r := range cmd {
		switch {
		case r == '\'':
			quoted, inWord = !quoted, true
		case r == ' ' && !quoted:
			if inWord {
				args = append(args, cur.String())
				cur.Reset()
				inWord = false
			}
		default:
			cur.WriteRune(r)
			inWord = true
		}
	}
	if inWord {
		args = append(args, cur.String())
	}
	return args
}
