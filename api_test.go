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

// uncalledAllowlist names the exported internal identifiers that no non-test
// code reaches but that stay on purpose, keyed "pkg.Name" or
// "pkg.Type.Method" (pkg relative to internal/), each with its reason.
var uncalledAllowlist = map[string]string{
	"la.ReadDense":     "binary matrix reader: the model artifact's framing, held to its writer by FuzzReadMatrix",
	"la.ReadCSR":       "binary matrix reader: the model artifact's framing, held to its writer by FuzzReadMatrix",
	"la.ReadIndicator": "binary matrix reader: the model artifact's framing, held to its writer by FuzzReadMatrix",
	"la.EqualApprox":   "the approximate-equality oracle the package tests share",

	"la.Dense.Encode":     "binary matrix writer: the round trip FuzzReadMatrix holds the reader beside it to",
	"la.CSR.Encode":       "binary matrix writer: the round trip FuzzReadMatrix holds the reader beside it to",
	"la.Indicator.Encode": "binary matrix writer: the round trip FuzzReadMatrix holds the reader beside it to",
	"la.Dense.Sub":        "the residual oracle the ml tests share",
	"la.Indicator.Dense":  "the dense oracle the indicator and kernel tests compare against",

	"plan.GNMF": "planned GNMF entry point, folded into the planned Fit entry point when it lands",

	"epoch.Snapshot.BuildChunked": "spills a snapshot to a chunk store, as the README walkthrough shows",

	"epoch.Store.EntityRows":  "observer the epoch tests assert through",
	"epoch.Store.AttrRows":    "observer the epoch tests assert through",
	"epoch.Store.AttrCols":    "observer the epoch tests assert through",
	"epoch.Store.PatchedRows": "observer the epoch tests assert through",

	"serve.Scorer.Owns":      "observer the placement tests assert through",
	"serve.Scorer.CacheRows": "observer the placement tests assert through",
	"serve.Scorer.Weights":   "observer the weight-swap tests assert through",
	"serve.Scorer.Version":   "observer the commit-tracking tests assert through",

	"chunk.NewStore":            "the one-directory store the package tests build on",
	"chunk.Store.OrphansReaped": "observer the orphan-reaping tests assert through",
	"chunk.Store.ShardStats":    "observer the shard-placement tests assert through",
	"chunk.Matrix.Retain":       "refcount hook the lifecycle tests assert through",
	"chunk.Matrix.ScaleExec":    "chunked operator the parallel and failure tests run against la",
	"chunk.Matrix.RowSumsExec":  "chunked operator the parallel and failure tests run against la",
	"chunk.SparseMatrix.CSR":    "gathers a chunked CSR for the sparse tests' oracle",

	"expr.Scale":     "script-level builder of the expression DAG the rewrite tests drive; expr stays or goes as a whole",
	"expr.Apply":     "script-level builder of the expression DAG the rewrite tests drive; expr stays or goes as a whole",
	"expr.RowSums":   "script-level builder of the expression DAG the rewrite tests drive; expr stays or goes as a whole",
	"expr.ColSums":   "script-level builder of the expression DAG the rewrite tests drive; expr stays or goes as a whole",
	"expr.CrossProd": "script-level builder of the expression DAG the rewrite tests drive; expr stays or goes as a whole",
}

// interfaceMethods are method names interfaces outside this module's
// source call dynamically (fmt, sort, net/http, encoding/json, errors).
var interfaceMethods = map[string]bool{
	"Error": true, "String": true, "GoString": true, "Format": true,
	"Len": true, "Less": true, "Swap": true,
	"ServeHTTP": true, "MarshalJSON": true, "UnmarshalJSON": true,
	"Unwrap": true, "Is": true, "As": true,
}

// TestNoUncalledInternalAPI fails when an exported identifier under
// internal/ has no caller in non-test code. Nothing outside this module can
// import internal/, so such an identifier cannot run: delete it, or list it
// in uncalledAllowlist with the reason it stays. A listed identifier that
// has a caller again, or no longer exists, fails too.
//
// Liveness is by type: every non-test package of this module and of the
// nested bench/ module is type-checked with go/types under the default
// build tags (the standard library from its gc export data), and
//   - a package-level identifier is live when any code refers to it;
//   - a method is live when some selection resolves to it (a generic
//     type's through its origin), when an interface selection names it and
//     a type whose method set holds it (embedding counts) implements that
//     interface, or when interfaceMethods names it;
//   - an interface method is live when some selection resolves to it.
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
			problems = append(problems, key+": no non-test caller; delete it or allowlist it with a reason")
		}
	}
	for key, reason := range uncalledAllowlist {
		ok, exists := live[key]
		switch {
		case !exists:
			problems = append(problems, key+": allowlisted but not declared any more; drop the entry")
		case ok:
			problems = append(problems, key+": allowlisted but called again; drop the entry")
		case strings.TrimSpace(reason) == "":
			problems = append(problems, key+": allowlisted without a reason")
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
		"lib.Live.Name":         true,
		"lib.Dead.Name":         false, // a dead method sharing a live method's name
		"lib.Asserted.Hidden":   true,  // reached only through an interface-literal assertion
		"lib.Outer":             true,
		"lib.Promoter.Promoted": true,
		"lib.base.Promoted":     true, // promoted into Outer, which implements Promoter
		"lib.Box.Get":           true, // a generic type's method, through its origin
		"lib.Unused.Called":     true,
		"lib.Unused.Uncalled":   false, // an interface method nothing calls
		"lib.Impl.Called":       true,
		"lib.Impl.Uncalled":     false,
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

// internalLiveness type-checks pkgs and reports, for every exported
// package-level identifier, method and interface method declared under
// repro/internal/ (keyed "pkg.Name" or "pkg.Type.Method"), whether
// non-test code reaches it by the rules TestNoUncalledInternalAPI states.
// Imports outside pkgs come from std.
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

	reached := map[types.Object]bool{}
	for _, obj := range info.Uses {
		reached[origin(obj)] = true
	}

	// Every named non-interface type, instances of generic ones included,
	// is a candidate to implement an interface a selection goes through.
	var impls []types.Type
	addImpl := func(t types.Type) {
		if n, ok := t.(*types.Named); ok && !types.IsInterface(n) && (n.TypeParams().Len() == 0 || n.TypeArgs().Len() > 0) {
			impls = append(impls, n, types.NewPointer(n))
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
	type ifaceSel struct {
		iface *types.Interface
		name  string
		pkg   *types.Package
	}
	dynamic := map[ifaceSel]bool{}
	for _, sel := range info.Selections {
		m, ok := sel.Obj().(*types.Func)
		if !ok || sel.Kind() == types.FieldVal {
			continue
		}
		iface, ok := deref(sel.Recv()).Underlying().(*types.Interface)
		if !ok {
			iface, ok = m.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
		}
		if ok {
			dynamic[ifaceSel{iface, m.Name(), m.Pkg()}] = true
		}
	}
	for s := range dynamic {
		for _, t := range impls {
			obj, _, _ := types.LookupFieldOrMethod(t, false, s.pkg, s.name)
			if m, ok := obj.(*types.Func); ok && !reached[origin(m)] && types.Implements(t, s.iface) {
				reached[origin(m)] = true
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
			if obj.Exported() {
				live[rel+"."+name] = reached[obj]
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			n := tn.Type().(*types.Named)
			if iface, ok := n.Underlying().(*types.Interface); ok {
				for i := 0; i < iface.NumExplicitMethods(); i++ {
					if m := iface.ExplicitMethod(i); m.Exported() {
						live[rel+"."+name+"."+m.Name()] = reached[m] || interfaceMethods[m.Name()]
					}
				}
				continue
			}
			for i := 0; i < n.NumMethods(); i++ {
				if m := n.Method(i); m.Exported() {
					live[rel+"."+name+"."+m.Name()] = reached[m] || interfaceMethods[m.Name()]
				}
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
