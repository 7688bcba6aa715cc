package experiments

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// globalAllowlist is the closed set of package-level variables this
// package may declare: only the two immutable workload tables. Run
// configuration and the failed-run counter travel on the RunContext the
// CLI passes down; any new top-level var must either be added here with
// justification or — for per-run configuration — live on RunContext
// instead.
var globalAllowlist = map[string]string{
	"sparkSpecs":  "immutable workload table (Table 3 / Fig 6-7 sizing points)",
	"giraphSpecs": "immutable workload table (Table 4 sizing points)",
}

// TestNoPackageLevelMutableConfig is the globals lint: it parses every
// non-test file in this package and fails if a package-level var exists
// outside the allowlist. This is the CI tripwire against reintroducing
// cross-run config bleed through package state.
func TestNoPackageLevelMutableConfig(t *testing.T) {
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	fset := token.NewFileSet()
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(".", name), nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("parse %s: %v", name, err)
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, id := range vs.Names {
					if id.Name == "_" {
						continue // compile-time interface assertions
					}
					if _, ok := globalAllowlist[id.Name]; !ok {
						t.Errorf("%s: package-level var %q is not in the allowlist; "+
							"per-run configuration belongs on RunContext, not package state",
							fset.Position(id.Pos()), id.Name)
					}
				}
			}
		}
	}
}
