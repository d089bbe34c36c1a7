package repro

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// uncalledAllowlist names the internal declarations that no root reaches
// but that stay on purpose, keyed "pkg.name" or "pkg.Type.method" (pkg
// relative to internal/), each with its reason and the ROADMAP item that
// decides it.
var uncalledAllowlist = map[string]string{
	"plan.GNMF": "planned GNMF entry point; ROADMAP item 1 folds it into the planned Fit entry point",

	"expr.Scale":     "script-level DAG builder; ROADMAP item 22 keeps or deletes expr as a whole, with bench/'s probe",
	"expr.Apply":     "script-level DAG builder; ROADMAP item 22 keeps or deletes expr as a whole, with bench/'s probe",
	"expr.RowSums":   "script-level DAG builder; ROADMAP item 22 keeps or deletes expr as a whole, with bench/'s probe",
	"expr.ColSums":   "script-level DAG builder; ROADMAP item 22 keeps or deletes expr as a whole, with bench/'s probe",
	"expr.CrossProd": "script-level DAG builder; ROADMAP item 22 keeps or deletes expr as a whole, with bench/'s probe",
}

// interfaceMethods are method names interfaces outside this module's
// source call dynamically (fmt, sort, net/http, encoding/json, errors).
var interfaceMethods = map[string]bool{
	"Error": true, "String": true, "GoString": true, "Format": true,
	"Len": true, "Less": true, "Swap": true,
	"ServeHTTP": true, "MarshalJSON": true, "UnmarshalJSON": true,
	"Unwrap": true, "Is": true, "As": true,
}

// TestNoUncalledInternalAPI fails when a declaration under internal/ is
// not reached from a root. Nothing outside this module can import internal/,
// so such a declaration cannot run in any binary: delete it, move it into its
// package's tests, or list it in uncalledAllowlist with the reason it stays.
// A listed declaration that is reached again, or no longer exists, fails too.
//
// Liveness is reachability by type: every non-test package of this module
// and of the nested bench/ module is type-checked with go/types under the
// default build tags (the standard library from its gc export data), and
//   - the roots are every func main, every init, every package-level var
//     initializer and the root package's exported identifiers and methods;
//   - a reached declaration reaches every object its identifiers use (a
//     method its receiver type; a generic type's method through its
//     origin) and every interface selection it makes;
//   - a reached interface selection reaches the method it names on every
//     reached type (embedding counts) that implements that interface, and
//     a reached type reaches the methods interfaceMethods names;
//   - functions, methods, types, vars and consts are judged, exported or
//     not; struct fields are not.
func TestNoUncalledInternalAPI(t *testing.T) {
	fset := token.NewFileSet()
	var pkgs []*srcPkg
	for _, mod := range []struct{ dir, path string }{{".", "repro"}, {"bench", "repro/bench"}} {
		ps, err := loadModule(fset, mod.dir, mod.path)
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, ps...)
	}
	std, err := stdImporter(fset, pkgs)
	if err != nil {
		t.Fatal(err)
	}
	live, err := internalLiveness(fset, pkgs, std)
	if err != nil {
		t.Fatal(err)
	}

	var problems []string
	for key, ok := range live {
		if _, listed := uncalledAllowlist[key]; !ok && !listed {
			problems = append(problems, key+": no root reaches it; delete it or move it into its package's tests")
		}
	}
	for key, reason := range uncalledAllowlist {
		ok, exists := live[key]
		switch {
		case !exists:
			problems = append(problems, key+": allowlisted but not declared any more; drop the entry")
		case ok:
			problems = append(problems, key+": allowlisted but reached again; drop the entry")
		case !strings.Contains(reason, "ROADMAP item "):
			problems = append(problems, key+": allowlisted without the ROADMAP item that decides it")
		}
	}
	sort.Strings(problems)
	for _, p := range problems {
		t.Error(p)
	}
}

// TestLivenessFixture holds the resolver to its rules over a small
// in-memory module.
func TestLivenessFixture(t *testing.T) {
	const lib = `package lib

type Live struct{}

func (Live) Name() int { return 1 }

type Dead struct{}

// Name shares a live method's name, and nothing calls it.
func (Dead) Name() int { return 2 }

type Asserted struct{}

func (Asserted) Hidden() int { return 3 }

type base struct{}

func (*base) Promoted() int { return 4 }

// Outer implements Promoter only through its embedded base.
type Outer struct{ base }

type Promoter interface{ Promoted() int }

type Box[T any] struct{ v T }

func (b Box[T]) Get() T { return b.v }

type Unused interface {
	Called() int
	Uncalled() int
}

type Impl struct{}

func (Impl) Called() int   { return 5 }
func (Impl) Uncalled() int { return 6 }

func DeadCaller() { calledOnlyFromDead() }

func calledOnlyFromDead() {}

func unexportedDead() {}

func (Live) unexportedDead() int { return 7 }

func init() { fromInit() }

func fromInit() {}

var table = fromVar()

func fromVar() int { return 8 }
`
	const main = `package main

import "repro/internal/lib"

func main() {
	_ = lib.Live{}.Name()
	var x any = lib.Asserted{}
	_ = x.(interface{ Hidden() int }).Hidden()
	var p lib.Promoter = &lib.Outer{}
	_ = p.Promoted()
	_ = lib.Box[int]{}.Get()
	var u lib.Unused = lib.Impl{}
	_ = u.Called()
	_ = lib.Dead{}
}
`
	fset := token.NewFileSet()
	var pkgs []*srcPkg
	for _, src := range []struct{ path, code string }{{"repro/internal/lib", lib}, {"repro/cmd/fixture", main}} {
		f, err := parser.ParseFile(fset, src.path+"/x.go", src.code, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, &srcPkg{path: src.path, files: []*ast.File{f}})
	}
	live, err := internalLiveness(fset, pkgs, importer.ForCompiler(fset, "gc", nil))
	if err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]bool{
		"lib.Live.Name":           true,
		"lib.Dead.Name":           false, // a dead method sharing a live method's name
		"lib.Asserted.Hidden":     true,  // reached only through an interface-literal assertion
		"lib.Outer":               true,
		"lib.Promoter.Promoted":   true,
		"lib.base.Promoted":       true, // promoted into Outer, which implements Promoter
		"lib.Box.Get":             true, // a generic type's method, through its origin
		"lib.Unused.Called":       true,
		"lib.Unused.Uncalled":     false, // an interface method nothing calls
		"lib.Impl.Called":         true,
		"lib.Impl.Uncalled":       false,
		"lib.DeadCaller":          false,
		"lib.calledOnlyFromDead":  false, // called only from a dead function
		"lib.unexportedDead":      false,
		"lib.Live.unexportedDead": false,
		"lib.fromInit":            true, // reached only from an init
		"lib.fromVar":             true, // reached only from a var initializer
	} {
		if got, ok := live[key]; !ok || got != want {
			t.Errorf("%s: live %v (declared %v), want live %v", key, got, ok, want)
		}
	}
}

// srcPkg is one package's parsed non-test files under its import path.
type srcPkg struct {
	path  string
	files []*ast.File
}

// loadModule parses the non-test files the default build context selects
// in every package of the module rooted at dir, skipping nested modules,
// testdata and dot directories.
func loadModule(fset *token.FileSet, dir, modPath string) ([]*srcPkg, error) {
	var pkgs []*srcPkg
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if p != dir {
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		entries, err := os.ReadDir(p)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, p)
		pkg := &srcPkg{path: path.Join(modPath, filepath.ToSlash(rel))}
		for _, e := range entries {
			n := e.Name()
			if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
				continue
			}
			if ok, err := build.Default.MatchFile(p, n); err != nil || !ok {
				if err != nil {
					return err
				}
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(p, n), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			pkg.files = append(pkg.files, f)
		}
		if len(pkg.files) > 0 {
			pkgs = append(pkgs, pkg)
		}
		return nil
	})
	return pkgs, err
}

// stdImporter reads the standard library's gc export data, located for
// every package the sources import by one `go list -export` run.
func stdImporter(fset *token.FileSet, pkgs []*srcPkg) (types.Importer, error) {
	own := map[string]bool{}
	for _, p := range pkgs {
		own[p.path] = true
	}
	seen := map[string]bool{}
	var std []string
	for _, p := range pkgs {
		for _, f := range p.files {
			for _, imp := range f.Imports {
				ip := strings.Trim(imp.Path.Value, `"`)
				if !own[ip] && !seen[ip] && ip != "unsafe" && ip != "C" {
					seen[ip] = true
					std = append(std, ip)
				}
			}
		}
	}
	sort.Strings(std)
	out, err := exec.Command("go", append([]string{"list", "-export", "-f", "{{.ImportPath}}\t{{.Export}}"}, std...)...).Output()
	if err != nil {
		return nil, fmt.Errorf("go list -export: %v", err)
	}
	export := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if ip, file, ok := strings.Cut(line, "\t"); ok && file != "" {
			export[ip] = file
		}
	}
	return importer.ForCompiler(fset, "gc", func(ip string) (io.ReadCloser, error) {
		file, ok := export[ip]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", ip)
		}
		b, err := os.ReadFile(file)
		return io.NopCloser(bytes.NewReader(b)), err
	}), nil
}

// internalLiveness type-checks pkgs and reports, for every package-level
// declaration, method and interface method declared under repro/internal/
// (keyed "pkg.name" or "pkg.Type.method"), whether a root reaches it by the
// rules TestNoUncalledInternalAPI states. Imports outside pkgs come from std.
func internalLiveness(fset *token.FileSet, pkgs []*srcPkg, std types.Importer) (map[string]bool, error) {
	info := &types.Info{
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	l := &loader{fset: fset, std: std, info: info, ctxt: types.NewContext(),
		src: map[string]*srcPkg{}, done: map[string]*types.Package{}}
	for _, p := range pkgs {
		l.src[p.path] = p
	}
	for _, p := range pkgs {
		if _, err := l.Import(p.path); err != nil {
			return nil, err
		}
	}

	// A declaration's edges are the objects its identifiers use and the
	// interface selections it makes; the roots' are gathered under nil.
	type ifaceSel struct {
		iface *types.Interface
		name  string
		pkg   *types.Package
	}
	uses := map[types.Object][]types.Object{}
	dyn := map[types.Object][]ifaceSel{}
	collect := func(from types.Object, n ast.Node) {
		if n == nil {
			return
		}
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if obj := info.Uses[n]; obj != nil {
					uses[from] = append(uses[from], origin(obj))
				}
			case *ast.SelectorExpr:
				sel := info.Selections[n]
				if sel == nil || sel.Kind() == types.FieldVal {
					break
				}
				m := sel.Obj().(*types.Func)
				iface, ok := deref(sel.Recv()).Underlying().(*types.Interface)
				if !ok {
					iface, ok = m.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
				}
				if ok {
					dyn[from] = append(dyn[from], ifaceSel{iface, m.Name(), m.Pkg()})
				}
			}
			return true
		})
	}
	var roots []types.Object
	for _, p := range pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					obj := info.Defs[d.Name]
					collect(obj, d)
					if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && f.Name.Name == "main") {
						roots = append(roots, obj)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							collect(info.Defs[s.Name], s)
						case *ast.ValueSpec:
							for _, name := range s.Names {
								obj := info.Defs[name]
								if d.Tok == token.VAR {
									collect(obj, s.Type)
									continue
								}
								collect(obj, s)
								// A repeated iota spec names no type of its own.
								if n, ok := obj.Type().(*types.Named); ok {
									uses[obj] = append(uses[obj], n.Obj())
								}
							}
							if d.Tok == token.VAR {
								for _, v := range s.Values {
									collect(nil, v)
								}
							}
						}
					}
				}
			}
		}
		if p.path != "repro" {
			continue
		}
		scope := l.done[p.path].Scope()
		for _, name := range scope.Names() {
			if obj := scope.Lookup(name); obj.Exported() {
				roots = append(roots, obj)
				if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
					n := tn.Type().(*types.Named)
					for i := 0; i < n.NumMethods(); i++ {
						if m := n.Method(i); m.Exported() {
							roots = append(roots, m)
						}
					}
				}
			}
		}
	}

	// Every named non-interface type, instances of generic ones included,
	// is a candidate to implement an interface a reached selection goes
	// through, once its declaration is reached.
	var impls []*types.Named
	addImpl := func(t types.Type) {
		if n, ok := t.(*types.Named); ok && !types.IsInterface(n) && (n.TypeParams().Len() == 0 || n.TypeArgs().Len() > 0) {
			impls = append(impls, n)
		}
	}
	for _, obj := range info.Defs {
		if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
			addImpl(tn.Type())
		}
	}
	for _, inst := range info.Instances {
		addImpl(inst.Type)
	}

	reached := map[types.Object]bool{}
	dynamic := map[ifaceSel]bool{}
	var work []types.Object
	reach := func(obj types.Object) {
		if !reached[obj] {
			reached[obj] = true
			work = append(work, obj)
		}
	}
	for _, obj := range append(roots, uses[nil]...) {
		reach(obj)
	}
	for _, s := range dyn[nil] {
		dynamic[s] = true
	}
	for len(work) > 0 {
		for len(work) > 0 {
			obj := work[len(work)-1]
			work = work[:len(work)-1]
			for _, u := range uses[obj] {
				reach(u)
			}
			for _, s := range dyn[obj] {
				dynamic[s] = true
			}
		}
		// A reached type's methods that a reached interface selection, or
		// a dynamic caller outside this source, can dispatch to.
		for _, n := range impls {
			if !reached[n.Origin().Obj()] {
				continue
			}
			for i := 0; i < n.NumMethods(); i++ {
				if m := n.Method(i); interfaceMethods[m.Name()] {
					reach(m.Origin())
				}
			}
			for s := range dynamic {
				for _, t := range []types.Type{n, types.NewPointer(n)} {
					obj, _, _ := types.LookupFieldOrMethod(t, false, s.pkg, s.name)
					if m, ok := obj.(*types.Func); ok && types.Implements(t, s.iface) {
						reach(m.Origin())
					}
				}
			}
		}
	}

	live := map[string]bool{}
	for _, p := range pkgs {
		rel, ok := strings.CutPrefix(p.path, "repro/internal/")
		if !ok {
			continue
		}
		scope := l.done[p.path].Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			live[rel+"."+name] = reached[obj]
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			n := tn.Type().(*types.Named)
			if iface, ok := n.Underlying().(*types.Interface); ok {
				for i := 0; i < iface.NumExplicitMethods(); i++ {
					m := iface.ExplicitMethod(i)
					live[rel+"."+name+"."+m.Name()] = reached[m] || reached[tn] && interfaceMethods[m.Name()]
				}
				continue
			}
			for i := 0; i < n.NumMethods(); i++ {
				m := n.Method(i)
				live[rel+"."+name+"."+m.Name()] = reached[m]
			}
		}
	}
	return live, nil
}

// loader type-checks source packages on demand, in import order, into one
// shared types.Info.
type loader struct {
	fset *token.FileSet
	std  types.Importer
	info *types.Info
	ctxt *types.Context
	src  map[string]*srcPkg
	done map[string]*types.Package
}

func (l *loader) Import(ip string) (*types.Package, error) {
	if p, ok := l.done[ip]; ok {
		return p, nil
	}
	src, ok := l.src[ip]
	if !ok {
		return l.std.Import(ip)
	}
	conf := types.Config{Importer: l, Context: l.ctxt}
	p, err := conf.Check(ip, l.fset, src.files, l.info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %v", ip, err)
	}
	l.done[ip] = p
	return p, nil
}

// origin maps a method of a generic instance to its declaration.
func origin(obj types.Object) types.Object {
	if f, ok := obj.(*types.Func); ok {
		return f.Origin()
	}
	return obj
}

func deref(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}
