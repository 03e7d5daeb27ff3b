// Package deadexport keeps dead exported code from piling up in the
// internal packages: an exported func, type, var or const declared in a
// non-test file under internal/ must be referenced from some non-test
// file of the module — its own package included, so an export used
// only at home is still live (if needlessly exported). A name only
// tests reach is dead production code; either delete it with its tests
// or, for a genuine test-support helper, suppress the finding with
// //qclint:allow deadexport naming the test that needs it.
//
// Methods are exempt: interface dispatch hides their callers. The
// rule needs the whole module (Pass.Module), and each package was
// type-checked against export data, so references are matched by
// package path and name rather than by types.Object identity.
package deadexport

import (
	"go/ast"
	"go/types"
	"strings"

	"qcsim/lint/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "deadexport",
	Doc: "an exported func, type, var or const declared in a non-test file under internal/ " +
		"must be referenced from a non-test file of the module; methods are exempt",
	Run: run,
}

func run(pass *analysis.Pass) error {
	path := pass.PkgPath
	if !strings.Contains("/"+path+"/", "/internal/") || analysis.BasePkgPath(path) != path {
		return nil
	}
	used := references(pass.Module)
	report := func(id *ast.Ident, kind string) {
		if id.IsExported() && !used[path+"."+id.Name] {
			pass.Reportf(id.Pos(), "exported %s %s has no non-test reference in the module; delete it or unexport it", kind, id.Name)
		}
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					report(d.Name, "func")
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						report(s.Name, "type")
					case *ast.ValueSpec:
						for _, id := range s.Names {
							report(id, d.Tok.String())
						}
					}
				}
			}
		}
	}
	return nil
}

// references returns the package-level objects that non-test files of
// the module refer to, keyed "pkgpath.Name". A method's receiver does
// not count as a reference to its type: a type only its own methods
// mention is as dead as they are.
func references(module []*analysis.Target) map[string]bool {
	used := make(map[string]bool)
	for _, t := range module {
		receivers := make(map[*ast.Ident]bool)
		for _, f := range t.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil {
					ast.Inspect(fd.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							receivers[id] = true
						}
						return true
					})
				}
			}
		}
		for id, obj := range t.TypesInfo.Uses {
			pkg := obj.Pkg()
			if pkg == nil || receivers[id] || !packageLevel(obj) ||
				strings.HasSuffix(t.Fset.Position(id.Pos()).Filename, "_test.go") {
				continue
			}
			used[pkg.Path()+"."+obj.Name()] = true
		}
	}
	return used
}

// packageLevel reports whether obj is declared at package scope (not a
// field, method, local or parameter).
func packageLevel(obj types.Object) bool {
	return obj.Pkg().Scope().Lookup(obj.Name()) == obj
}
