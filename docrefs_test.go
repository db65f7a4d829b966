package nvmecr

import (
	"bufio"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	docSpan = regexp.MustCompile("`([^`]+)`")
	// A qualified name: pkg.Name, not preceded by an identifier or a
	// dot, with an optional trailing * or … that makes Name a prefix.
	docQualified = regexp.MustCompile(`(?:^|[^\w.])([a-z][a-z0-9]*)\.([A-Z]\w*)([*…]?)`)
	docTestName  = regexp.MustCompile(`(?:^|\W)((?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*)([*…]?)`)
	testFunc     = regexp.MustCompile(`^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	docHeading   = regexp.MustCompile(`^(#+)\s`)
)

// TestDocReferences holds the prose to the tree. In README.md,
// DESIGN.md and docs/*.md, every backticked pkg.Name must name a
// declaration in its package, and every TestX, BenchmarkX or FuzzX a
// test function somewhere in the module. pkg is a directory under
// internal/, the module root (nvmecr) or a standard-library package; a
// lowercase qualifier that is none of these fails too, so that a
// reference into a deleted package cannot pass for a variable (write
// Type.Method, not v.Method). A trailing * or … makes the name a
// prefix. Fenced code blocks and sections headed "Measured and lost",
// which record history, are not checked.
func TestDocReferences(t *testing.T) {
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	docs = append([]string{"README.md", "DESIGN.md"}, docs...)
	pkgs := map[string]string{"nvmecr": "."}
	dirs, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if d.IsDir() {
			pkgs[d.Name()] = filepath.Join("internal", d.Name())
		}
	}
	std := stdPackageNames(t)
	tests := moduleTests(t)
	decls := map[string]map[string]bool{}
	for _, doc := range docs {
		checkDoc(t, doc, func(m []string) bool {
			dir, ok := pkgs[m[1]]
			if !ok {
				return std[m[1]]
			}
			if decls[dir] == nil {
				decls[dir] = declaredNames(t, dir)
			}
			return hasName(decls[dir], m[2], m[3] != "")
		}, func(m []string) bool {
			return hasName(tests, m[1], m[2] != "")
		})
	}
}

// checkDoc reports every qualified name in doc that qualified rejects
// and every test name that test rejects; each is handed its submatches.
func checkDoc(t *testing.T, doc string, qualified, test func(m []string) bool) {
	t.Helper()
	f, err := os.Open(doc)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	fenced, exempt, exemptLevel := false, false, 0
	for line := 1; sc.Scan(); line++ {
		text := sc.Text()
		if strings.HasPrefix(strings.TrimSpace(text), "```") {
			fenced = !fenced
			continue
		}
		if fenced {
			continue
		}
		if h := docHeading.FindStringSubmatch(text); h != nil {
			if exempt && len(h[1]) <= exemptLevel {
				exempt = false
			}
			if strings.Contains(text, "Measured and lost") {
				exempt, exemptLevel = true, len(h[1])
			}
		}
		if exempt {
			continue
		}
		for _, span := range docSpan.FindAllStringSubmatch(text, -1) {
			for _, m := range docQualified.FindAllStringSubmatch(span[1], -1) {
				if !qualified(m) {
					t.Errorf("%s:%d: %s.%s%s does not resolve in the tree", doc, line, m[1], m[2], m[3])
				}
			}
			for _, m := range docTestName.FindAllStringSubmatch(span[1], -1) {
				if !test(m) {
					t.Errorf("%s:%d: %s%s does not resolve in the tree", doc, line, m[1], m[2])
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
}

func hasName(names map[string]bool, name string, prefix bool) bool {
	if !prefix {
		return names[name]
	}
	for n := range names {
		if strings.HasPrefix(n, name) {
			return true
		}
	}
	return false
}

// declaredNames collects what the package in dir declares, tests
// included: functions, methods, types, their fields and interface
// methods, variables and constants.
func declaredNames(t *testing.T, dir string) map[string]bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				names[n.Name.Name] = true
			case *ast.TypeSpec:
				names[n.Name.Name] = true
			case *ast.ValueSpec:
				for _, id := range n.Names {
					names[id.Name] = true
				}
			case *ast.Field:
				for _, id := range n.Names {
					names[id.Name] = true
				}
			}
			return true
		})
	}
	return names
}

// moduleTests collects every Test, Benchmark and Fuzz function in the
// module.
func moduleTests(t *testing.T) map[string]bool {
	t.Helper()
	names := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if m := testFunc.FindStringSubmatch(sc.Text()); m != nil {
				names[m[1]] = true
			}
		}
		return sc.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// stdPackageNames collects the last element of every standard-library
// import path.
func stdPackageNames(t *testing.T) map[string]bool {
	t.Helper()
	src := filepath.Join(build.Default.GOROOT, "src")
	names := map[string]bool{}
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		switch d.Name() {
		case "testdata", "vendor", "internal", "cmd":
			return filepath.SkipDir
		}
		names[d.Name()] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}
