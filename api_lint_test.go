package teraheap_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// apiAllowlist names the functions and methods under internal/ that may
// lack a reference from production code, each with the reason. Keys are
// "dir.Func" or "dir.Type.Method", with dir relative to the module root.
var apiAllowlist = map[string]string{
	"internal/gc.FaultError.Unwrap":       "errors.Is and errors.As call it through the error-wrapping interface",
	"internal/giraph.SSSP.UseEdgeWeights": "marker method: the engine finds edge-weighted programs by asserting giraph.EdgeWeightUser",
}

// TestNoTestOnlyAPI is the API tripwire: every function or method
// declared in a non-test file under internal/ must be referenced from a
// non-test file of the repository (cmd/, examples/ and perfbench/ count
// as production), or be in apiAllowlist. An API that only tests call
// belongs in the tests' own files. The scan is by name: a package-level
// function counts as referenced when its package uses it unqualified or
// another package selects it through an import; a method counts as
// referenced when any selector anywhere names it. A function's uses
// inside its own body do not count.
func TestNoTestOnlyAPI(t *testing.T) {
	const module = "github.com/carv-repro/teraheap-go"
	fset := token.NewFileSet()
	type file struct {
		dir string // slash path relative to the module root
		f   *ast.File
	}
	var files []file
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, file{dir: filepath.ToSlash(filepath.Dir(p)), f: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	importPath := func(dir string) string {
		if dir == "." {
			return module
		}
		return module + "/" + dir
	}
	pkgName := map[string]string{} // import path -> package name
	for _, fl := range files {
		pkgName[importPath(fl.dir)] = fl.f.Name.Name
	}

	funcRefs := map[string]bool{}   // "importpath.Func"
	methodRefs := map[string]bool{} // method name
	for _, fl := range files {
		imports := map[string]string{} // local name -> import path
		for _, is := range fl.f.Imports {
			p := strings.Trim(is.Path.Value, `"`)
			local := path.Base(p)
			if n, ok := pkgName[p]; ok {
				local = n
			}
			if is.Name != nil {
				local = is.Name.Name
			}
			imports[local] = p
		}
		self := importPath(fl.dir)
		for _, decl := range fl.f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				// The declared name is not a use; nor are uses of the
				// name inside the function's own body.
				r := refs{self: self, imports: imports, funcs: funcRefs, methods: methodRefs}
				if fd.Recv == nil {
					r.ownFunc = fd.Name.Name
				} else {
					r.ownMethod = fd.Name.Name
				}
				if fd.Recv != nil {
					ast.Inspect(fd.Recv, r.visit)
				}
				ast.Inspect(fd.Type, r.visit)
				if fd.Body != nil {
					ast.Inspect(fd.Body, r.visit)
				}
				continue
			}
			ast.Inspect(decl, refs{self: self, imports: imports, funcs: funcRefs, methods: methodRefs}.visit)
		}
	}

	var unreferenced []string
	declared := map[string]bool{}
	for _, fl := range files {
		if fl.dir != "internal" && !strings.HasPrefix(fl.dir, "internal/") {
			continue
		}
		for _, decl := range fl.f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name == "init" || fd.Name.Name == "_" {
				continue
			}
			var key string
			var used bool
			if fd.Recv == nil {
				key = fl.dir + "." + fd.Name.Name
				used = funcRefs[importPath(fl.dir)+"."+fd.Name.Name]
			} else {
				key = fl.dir + "." + recvName(fd.Recv.List[0].Type) + "." + fd.Name.Name
				used = methodRefs[fd.Name.Name]
			}
			declared[key] = true
			if _, ok := apiAllowlist[key]; ok || used {
				continue
			}
			unreferenced = append(unreferenced, fset.Position(fd.Pos()).String()+": "+key)
		}
	}
	for key := range apiAllowlist {
		if !declared[key] {
			t.Errorf("allowlist entry %s names no function under internal/; remove it", key)
		}
	}
	sort.Strings(unreferenced)
	for _, u := range unreferenced {
		t.Errorf("%s has no reference from production code; delete it, give it a production caller, "+
			"move it into its package's _test.go files, or allowlist it with a reason", u)
	}
}

// refs records the function and method references of one file.
type refs struct {
	self               string            // the file's import path
	ownFunc, ownMethod string            // the enclosing declaration, not counted
	imports            map[string]string // local package name -> import path
	funcs              map[string]bool   // "importpath.Func"
	methods            map[string]bool   // method name
}

// visit records n if it references a function or a method: an
// unqualified identifier names a function of the file's own package, a
// selector on an imported package name names that package's function,
// and any other selector may name a method.
func (r refs) visit(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.Ident:
		if n.Name != r.ownFunc {
			r.funcs[r.self+"."+n.Name] = true
		}
	case *ast.SelectorExpr:
		if x, ok := n.X.(*ast.Ident); ok {
			if p, ok := r.imports[x.Name]; ok {
				r.funcs[p+"."+n.Sel.Name] = true
				return false
			}
		}
		if n.Sel.Name != r.ownMethod {
			r.methods[n.Sel.Name] = true
		}
		ast.Inspect(n.X, r.visit)
		return false
	}
	return true
}

// recvName is the type name of a method receiver.
func recvName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvName(e.X)
	case *ast.IndexExpr:
		return recvName(e.X)
	case *ast.IndexListExpr:
		return recvName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return "?"
}
