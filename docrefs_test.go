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
	"strconv"
	"strings"
	"testing"
)

// modulePath is the module's import path (go.mod).
const modulePath = "github.com/nvme-cr/nvmecr"

var (
	docSpan = regexp.MustCompile("`([^`]+)`")
	// A qualified name: pkg.Name or pkg.Type.Member, not preceded by an
	// identifier or a dot, with an optional trailing * or … that makes
	// the last element a prefix.
	docQualified = regexp.MustCompile(`(?:^|[^\w.])([a-z][a-z0-9]*)\.([A-Z]\w*)(?:\.(\w+))?([*…]?)`)
	// A member of a type named without its package: Type.Member.
	docMember   = regexp.MustCompile(`(?:^|[^\w.])([A-Z]\w*)\.(\w+)([*…]?)`)
	docTestName = regexp.MustCompile(`(?:^|\W)((?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*)([*…]?)`)
	testFunc    = regexp.MustCompile(`^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	docHeading  = regexp.MustCompile(`^(#+)\s`)
)

// TestDocReferences holds the prose to the tree. In README.md,
// DESIGN.md and docs/*.md, every backticked pkg.Name must name a
// declaration in its package, and every TestX, BenchmarkX or FuzzX a
// test function somewhere in the module. pkg is a directory under
// internal/, the module root (nvmecr) or a standard-library package; a
// lowercase qualifier that is none of these fails too, so that a
// reference into a deleted package cannot pass for a variable (write
// Type.Method, not v.Method). pkg.Type.Member, and Type.Member where
// Type is a type the module declares, must name a field or method of
// that type, an embedded type's or an aliased type's included. A
// trailing * or … makes the last name a prefix. Fenced code blocks and
// sections headed "Measured and lost", which record history, are not
// checked.
func TestDocReferences(t *testing.T) {
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	docs = append([]string{"README.md", "DESIGN.md"}, docs...)
	mod := docModule(t)
	std := stdPackageNames(t)
	tests := moduleTests(t)
	for _, doc := range docs {
		checkDoc(t, doc, func(m []string) bool {
			dir, ok := mod.dirs[m[1]]
			if !ok {
				return std[m[1]]
			}
			pkg := mod.pkgs[dir]
			if m[3] == "" {
				return hasName(pkg.names, m[2], m[4] != "")
			}
			if !pkg.names[m[2]] {
				return false
			}
			if pkg.types[m[2]] == nil {
				return true // a variable or function: its type is not looked up
			}
			return mod.hasMember(docTypeRef{dir, m[2]}, m[3], m[4] != "", 0)
		}, func(m []string) bool {
			for _, dir := range mod.typeDirs[m[1]] {
				if mod.hasMember(docTypeRef{dir, m[1]}, m[2], m[3] != "", 0) {
					return true
				}
			}
			// Not a type of the module (a file name such as README.md).
			return len(mod.typeDirs[m[1]]) == 0
		}, func(m []string) bool {
			return hasName(tests, m[1], m[2] != "")
		})
	}
}

// checkDoc reports every qualified name in doc that qualified rejects,
// every Type.Member that member rejects and every test name that test
// rejects; each is handed its submatches.
func checkDoc(t *testing.T, doc string, qualified, member, test func(m []string) bool) {
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
					name := m[1] + "." + m[2]
					if m[3] != "" {
						name += "." + m[3]
					}
					t.Errorf("%s:%d: %s%s does not resolve in the tree", doc, line, name, m[4])
				}
			}
			for _, m := range docMember.FindAllStringSubmatch(span[1], -1) {
				if !member(m) {
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

// docTypeRef names a type by the directory of its package; dir "" is a
// package outside the module.
type docTypeRef struct{ dir, name string }

// docType is what a type offers a selector: its fields and methods, and
// the types whose members it shares (embedded fields, an alias's or a
// defined type's underlying named type).
type docType struct {
	members map[string]bool
	shares  []docTypeRef
}

// docPackage is what one package declares, tests included: every name
// (functions, methods, types, fields, interface methods, variables and
// constants) and every type.
type docPackage struct {
	names map[string]bool
	types map[string]*docType
}

// docModuleIndex is every package of the module, keyed by directory.
type docModuleIndex struct {
	dirs     map[string]string // package name -> directory
	pkgs     map[string]*docPackage
	typeDirs map[string][]string // type name -> directories declaring it
}

// docModule parses the module root and every package under internal/.
func docModule(t *testing.T) *docModuleIndex {
	t.Helper()
	mod := &docModuleIndex{
		dirs:     map[string]string{"nvmecr": "."},
		pkgs:     map[string]*docPackage{},
		typeDirs: map[string][]string{},
	}
	entries, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range entries {
		if d.IsDir() {
			mod.dirs[d.Name()] = filepath.Join("internal", d.Name())
		}
	}
	importDirs := map[string]string{modulePath: "."}
	for _, dir := range mod.dirs {
		if dir != "." {
			importDirs[modulePath+"/"+filepath.ToSlash(dir)] = dir
		}
	}
	for _, dir := range mod.dirs {
		pkg := parseDocPackage(t, dir, importDirs)
		mod.pkgs[dir] = pkg
		for name := range pkg.types {
			mod.typeDirs[name] = append(mod.typeDirs[name], dir)
		}
	}
	return mod
}

// hasMember reports whether the type ref names, or a type it shares
// members with, has a field or method named member. A type the module
// does not declare (the standard library's, a predeclared one) is not
// looked into and has every member.
func (mod *docModuleIndex) hasMember(ref docTypeRef, member string, prefix bool, depth int) bool {
	pkg := mod.pkgs[ref.dir]
	if pkg == nil || pkg.types[ref.name] == nil {
		return true
	}
	if depth > 8 {
		return false
	}
	ty := pkg.types[ref.name]
	if hasName(ty.members, member, prefix) {
		return true
	}
	for _, s := range ty.shares {
		if mod.hasMember(s, member, prefix, depth+1) {
			return true
		}
	}
	return false
}

// parseDocPackage collects what the package in dir declares. importDirs
// maps the module's import paths to directories, so that an embedded
// type from another package of the module is followed.
func parseDocPackage(t *testing.T, dir string, importDirs map[string]string) *docPackage {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	pkg := &docPackage{names: map[string]bool{}, types: map[string]*docType{}}
	typ := func(name string) *docType {
		if pkg.types[name] == nil {
			pkg.types[name] = &docType{members: map[string]bool{}}
		}
		return pkg.types[name]
	}
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		imports := map[string]string{} // file-local package name -> directory, "" outside the module
		for _, spec := range f.Imports {
			ip, _ := strconv.Unquote(spec.Path.Value)
			name := ip[strings.LastIndex(ip, "/")+1:]
			if spec.Name != nil {
				name = spec.Name.Name
			}
			imports[name] = importDirs[ip]
		}
		ref := func(e ast.Expr) (docTypeRef, bool) {
			for {
				switch x := e.(type) {
				case *ast.StarExpr:
					e = x.X
				case *ast.IndexExpr:
					e = x.X
				case *ast.IndexListExpr:
					e = x.X
				case *ast.Ident:
					return docTypeRef{dir, x.Name}, true
				case *ast.SelectorExpr:
					if id, ok := x.X.(*ast.Ident); ok {
						return docTypeRef{imports[id.Name], x.Sel.Name}, true
					}
					return docTypeRef{}, false
				default:
					return docTypeRef{}, false
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				pkg.names[n.Name.Name] = true
				if n.Recv != nil && len(n.Recv.List) == 1 {
					if r, ok := ref(n.Recv.List[0].Type); ok {
						typ(r.name).members[n.Name.Name] = true
					}
				}
			case *ast.TypeSpec:
				pkg.names[n.Name.Name] = true
				ty := typ(n.Name.Name)
				var fields *ast.FieldList
				switch u := n.Type.(type) {
				case *ast.StructType:
					fields = u.Fields
				case *ast.InterfaceType:
					fields = u.Methods
				default:
					if r, ok := ref(u); ok {
						ty.shares = append(ty.shares, r)
					}
				}
				if fields != nil {
					for _, fld := range fields.List {
						for _, id := range fld.Names {
							ty.members[id.Name] = true
						}
						if len(fld.Names) == 0 {
							if r, ok := ref(fld.Type); ok {
								ty.shares = append(ty.shares, r)
								ty.members[r.name] = true // an embedded field is named by its type
							}
						}
					}
				}
			case *ast.ValueSpec:
				for _, id := range n.Names {
					pkg.names[id.Name] = true
				}
			case *ast.Field:
				for _, id := range n.Names {
					pkg.names[id.Name] = true
				}
			}
			return true
		})
	}
	return pkg
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
