package nvmecr

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// settingExempt names the settings no code outside a _test.go file sets
// and that stay anyway, each with the reason. A setting is an exported
// field of a configuration struct (see TestSettingsInUse).
var settingExempt = map[string]string{
	"nvmeof.PoolConfig.Dial":       "test seam: FaultDialer puts a fault plan between the pool and the wire",
	"microfs.Config.SnapThreshold": "test seam: tests shrink it to provoke a snapshot in a few operations",
	"core.Options.LogBytes":        "test seam: tests shrink the log region to provoke log-full snapshots",
	"core.Options.SnapBytes":       "test seam: tests shrink the snapshot region next to a shrunk log",
	"rebalance.Config.Faults":      "the migration crash campaign's fault plan",
	"rebalance.Config.Tracer":      "feeds nvmecr-trace's migration timeline; goes with internal/rebalance (ROADMAP item 11)",
	"nvmecr.JobConfig.Options":     "the facade's one door to core.Options for code outside the module (README's ablation example)",
}

// TestSettingsInUse keeps configuration to the values in use: a setting
// that only tests set is one value in use, and one value is a constant
// (ROADMAP standard 2). Every exported field of an exported struct named
// Config, Options or …Config in internal/, and of the root JobConfig,
// must be keyed in a composite literal, assigned, or have its address
// taken somewhere outside a _test.go file; assignments inside the type's
// own withDefaults or setDefaults method do not count. The packages are
// type-checked against export data from go list -export, so that two
// fields of one name in two types stay apart. A field that stays unset
// is deleted or named in settingExempt with its reason.
func TestSettingsInUse(t *testing.T) {
	pkgs, exports := listModule(t)
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(f)
	})
	mod := pkgs[0].module
	settings := map[string]bool{}
	set := map[string]bool{}
	for _, p := range pkgs {
		var files []*ast.File
		for _, name := range p.files {
			f, err := parser.ParseFile(fset, filepath.Join(p.dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(p.path, fset, files, info)
		if err != nil {
			t.Fatalf("type-check %s: %v", p.path, err)
		}
		if p.path == mod || strings.HasPrefix(p.path, mod+"/internal/") {
			for _, key := range configFields(pkg, p.path == mod) {
				settings[key] = true
			}
		}
		for _, f := range files {
			markSettings(f, info, mod, set)
		}
	}
	var unset []string
	for key := range settings {
		if !set[key] && settingExempt[key] == "" {
			unset = append(unset, key)
		}
	}
	sort.Strings(unset)
	for _, key := range unset {
		t.Errorf("%s is set by no code outside a _test.go file: delete it, or name it in settingExempt with a reason", key)
	}
	for key := range settingExempt {
		if !settings[key] {
			t.Errorf("settingExempt names %s, which is not a setting", key)
		}
	}
}

type listedPackage struct {
	path, dir, module string
	files             []string
}

// listModule lists the module's packages, root first, with their non-test
// Go files, and the export data of every package they import.
func listModule(t *testing.T) ([]listedPackage, map[string]string) {
	t.Helper()
	gotool := filepath.Join(build.Default.GOROOT, "bin", "go")
	out, err := exec.Command(gotool, "list", "-export", "-deps",
		"-f", "{{.ImportPath}}\t{{.Export}}\t{{with .Module}}{{.Path}}{{end}}\t{{.Dir}}\t{{join .GoFiles \" \"}}", "./...").Output()
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			t.Fatalf("go list: %v\n%s", err, ee.Stderr)
		}
		t.Fatal(err)
	}
	exports := map[string]string{}
	var pkgs []listedPackage
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		f := strings.Split(sc.Text(), "\t")
		if len(f) != 5 {
			t.Fatalf("go list: unexpected line %q", sc.Text())
		}
		exports[f[0]] = f[1]
		if f[2] == "" {
			continue
		}
		p := listedPackage{path: f[0], module: f[2], dir: f[3], files: strings.Fields(f[4])}
		if p.path == p.module {
			pkgs = append([]listedPackage{p}, pkgs...)
		} else {
			pkgs = append(pkgs, p)
		}
	}
	if len(pkgs) == 0 || pkgs[0].path != pkgs[0].module {
		t.Fatal("go list did not list the module root")
	}
	return pkgs, exports
}

// configFields returns "pkg.Type.Field" for every exported field of the
// package's configuration structs: in internal/ those named Config,
// Options or …Config, at the root JobConfig.
func configFields(pkg *types.Package, root bool) []string {
	var keys []string
	for _, name := range pkg.Scope().Names() {
		tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
		if !ok || !tn.Exported() || tn.IsAlias() {
			continue
		}
		if root && name != "JobConfig" {
			continue
		}
		if !root && name != "Options" && !strings.HasSuffix(name, "Config") {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); f.Exported() {
				keys = append(keys, settingKey(pkg, name, f.Name()))
			}
		}
	}
	return keys
}

func settingKey(pkg *types.Package, typ, field string) string {
	return pkg.Name() + "." + typ + "." + field
}

// markSettings records in set every field of a module type that f keys
// in a composite literal, assigns, increments or takes the address of,
// outside a withDefaults or setDefaults method.
func markSettings(f *ast.File, info *types.Info, mod string, set map[string]bool) {
	field := func(owner types.Type, name string) {
		owner = types.Unalias(owner)
		if p, ok := owner.(*types.Pointer); ok {
			owner = types.Unalias(p.Elem())
		}
		n, ok := owner.(*types.Named)
		if !ok || n.Obj().Pkg() == nil || !strings.HasPrefix(n.Obj().Pkg().Path(), mod) {
			return
		}
		set[settingKey(n.Obj().Pkg(), n.Obj().Name(), name)] = true
	}
	selected := func(e ast.Expr) {
		sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
		if !ok {
			return
		}
		s := info.Selections[sel]
		if s == nil || s.Kind() != types.FieldVal {
			return
		}
		// Walk an embedded path to the struct that declares the field.
		owner := s.Recv()
		for _, i := range s.Index()[:len(s.Index())-1] {
			st, ok := derefStruct(owner)
			if !ok {
				return
			}
			owner = st.Field(i).Type()
		}
		field(owner, sel.Sel.Name)
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Recv != nil && (n.Name.Name == "withDefaults" || n.Name.Name == "setDefaults") {
				return false
			}
		case *ast.CompositeLit:
			tv, ok := info.Types[n]
			if !ok {
				return true
			}
			st, ok := derefStruct(tv.Type)
			if !ok {
				return true
			}
			for i, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						field(tv.Type, id.Name)
					}
				} else if i < st.NumFields() {
					field(tv.Type, st.Field(i).Name())
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				selected(lhs)
			}
		case *ast.IncDecStmt:
			selected(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				selected(n.X)
			}
		}
		return true
	})
}

func derefStruct(t types.Type) (*types.Struct, bool) {
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	return st, ok
}
