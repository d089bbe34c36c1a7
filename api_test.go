package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
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

	"plan.GNMF":      "planned GNMF entry point, folded into the planned Fit entry point when it lands",
	"plan.OpColSums": "planned operator, folded into the planned Fit entry point when it lands",
	"plan.OpSum":     "planned operator, folded into the planned Fit entry point when it lands",

	"epoch.Snapshot.BuildChunked": "spills a snapshot to a chunk store, as the README walkthrough shows",

	"epoch.Store.EntityRows":  "observer the epoch tests assert through",
	"epoch.Store.AttrRows":    "observer the epoch tests assert through",
	"epoch.Store.AttrCols":    "observer the epoch tests assert through",
	"epoch.Store.PatchedRows": "observer the epoch tests assert through",

	"serve.Scorer.Owns":      "observer the placement tests assert through",
	"serve.Scorer.CacheRows": "observer the placement tests assert through",
	"serve.Scorer.Weights":   "observer the weight-swap tests assert through",

	"chunk.Store.OrphansReaped": "observer the orphan-reaping tests assert through",
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
// Liveness is by name, from the syntax of every non-test file under
// internal/, cmd/, examples/, bench/ and the root:
//   - a package-level identifier is live when another package selects it
//     (pkg.Name) or its own package uses it beyond its declaration;
//   - a method is live when any file selects .Name on a value, or an
//     interface declares that name (interfaceMethods for the stdlib's).
func TestNoUncalledInternalAPI(t *testing.T) {
	files := parseNonTest(t, ".", "internal", "cmd", "examples", "bench")

	declared := map[string]bool{}  // "pkg.Name" of package-level declarations
	methods := map[string]string{} // "pkg.Type.Method" → method name
	declIdents := map[*ast.Ident]bool{}
	pkgUses := map[string]bool{}      // "pkg.Name" used outside its declaration
	selected := map[string]bool{}     // method names selected on a value
	ifaceMethods := map[string]bool{} // method names some interface declares
	for name := range interfaceMethods {
		ifaceMethods[name] = true
	}

	for _, f := range files {
		pkg, internal := internalPkg(f.dir)
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				declIdents[d.Name] = true
				if !internal || !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					declared[pkg+"."+d.Name.Name] = true
				} else if typ := recvType(d.Recv.List[0].Type); typ != "" {
					methods[pkg+"."+typ+"."+d.Name.Name] = d.Name.Name
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					var names []*ast.Ident
					switch s := spec.(type) {
					case *ast.TypeSpec:
						names = []*ast.Ident{s.Name}
					case *ast.ValueSpec:
						names = s.Names
					}
					for _, id := range names {
						declIdents[id] = true
						if internal && id.IsExported() {
							declared[pkg+"."+id.Name] = true
						}
					}
				}
			}
		}
	}

	for _, f := range files {
		pkg, internal := internalPkg(f.dir)
		imports := map[string]string{} // local name → package under internal/, or ""
		for _, imp := range f.ast.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			local := filepath.Base(path)
			if imp.Name != nil {
				local = imp.Name.Name
			}
			rel, ok := strings.CutPrefix(path, "repro/internal/")
			if !ok {
				rel = ""
			}
			imports[local] = rel
		}
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if rel, isPkg := imports[x.Name]; isPkg {
						if rel != "" {
							pkgUses[rel+"."+n.Sel.Name] = true
						}
						return false
					}
				}
				selected[n.Sel.Name] = true
				ast.Inspect(n.X, visit)
				return false
			case *ast.InterfaceType:
				for _, fld := range n.Methods.List {
					for _, id := range fld.Names {
						ifaceMethods[id.Name] = true
					}
				}
			case *ast.Field:
				// Struct fields and parameters declare names; they use none.
				for _, id := range n.Names {
					declIdents[id] = true
				}
			case *ast.Ident:
				if internal && !declIdents[n] {
					pkgUses[pkg+"."+n.Name] = true
				}
			}
			return true
		}
		ast.Inspect(f.ast, visit)
	}

	live := map[string]bool{}
	for key := range declared {
		live[key] = pkgUses[key]
	}
	for key, name := range methods {
		live[key] = selected[name] || ifaceMethods[name]
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

type parsedFile struct {
	dir string // slash-separated, relative to the module root
	ast *ast.File
}

// parseNonTest parses the non-test .go files of the root directory (not
// recursively) and of each subtree.
func parseNonTest(t *testing.T, root string, subtrees ...string) []parsedFile {
	t.Helper()
	fset := token.NewFileSet()
	var out []parsedFile
	add := func(path string) {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, parsedFile{dir: filepath.ToSlash(filepath.Dir(path)), ast: f})
	}
	isSource := func(name string) bool {
		return strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go")
	}
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir() && isSource(e.Name()) {
			add(filepath.Join(root, e.Name()))
		}
	}
	for _, sub := range subtrees {
		err := filepath.WalkDir(filepath.Join(root, sub), func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			if !d.IsDir() && isSource(d.Name()) {
				add(path)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// internalPkg reports the package path under internal/ of a source dir.
func internalPkg(dir string) (string, bool) {
	return strings.CutPrefix(dir, "internal/")
}

// recvType names a method's receiver type: T, *T, T[P] or *T[P].
func recvType(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvType(e.X)
	case *ast.IndexExpr:
		return recvType(e.X)
	case *ast.IndexListExpr:
		return recvType(e.X)
	case *ast.Ident:
		return e.Name
	}
	return ""
}
