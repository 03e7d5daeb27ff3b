// Package analysis is a dependency-free mirror of the
// golang.org/x/tools/go/analysis API surface that qclint's analyzers
// are written against. The root qcsim module is intentionally
// dependency-free and this container has no module proxy access, so
// instead of carrying x/tools the lint module re-implements the small
// subset it needs on the standard library (go/ast, go/types, and
// export data produced by `go list -export`). Analyzers keep the
// familiar Analyzer/Pass/Diagnostic shape, so porting the suite onto
// the real go/analysis multichecker (and `go vet -vettool`) later is a
// mechanical swap of import paths.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one invariant checker, mirroring
// x/tools/go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //qclint:allow directives. Lower-case, no spaces.
	Name string
	// Doc is the one-paragraph contract the analyzer enforces.
	Doc string
	// Run reports diagnostics for one package via pass.Report.
	Run func(pass *Pass) error
}

// Pass is the per-package unit of work handed to an Analyzer, mirroring
// x/tools/go/analysis.Pass.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files is the package's syntax, including in-package test files.
	Files []*ast.File
	// PkgPath is the package's import path. External test packages
	// carry a "_test" suffix; use BasePkgPath to normalize.
	PkgPath string
	// Pkg and TypesInfo are the type-checked package and its use/def/
	// selection tables.
	Pkg       *types.Package
	TypesInfo *types.Info
	// Module is every package of the run, this one included, for a
	// whole-module rule that must see references from the packages
	// importing this one (deadexport). x/tools has no counterpart: its
	// facts flow from a package's dependencies, never from its
	// importers. Each package was type-checked against export data, so
	// an object seen through another package's TypesInfo is not the
	// object this package declares — match by package path and name.
	Module []*Target
	// Report records one diagnostic.
	Report func(Diagnostic)
}

// Reportf reports a diagnostic at pos with a Sprintf-style message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// IsTestFile reports whether the file holding pos is a _test.go file.
func (p *Pass) IsTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// Diagnostic is one finding, positioned in the pass's FileSet.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Finding is a resolved diagnostic: analyzer name plus a concrete file
// position, ready to print or match against test expectations.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// Target is the type-checked package a run operates on — the loader-
// independent subset of a loaded package.
type Target struct {
	Fset      *token.FileSet
	Files     []*ast.File
	PkgPath   string
	Pkg       *types.Package
	TypesInfo *types.Info
	// Module is every target of the run (see Pass.Module).
	Module []*Target
}

// Run executes one analyzer over a target package, applies
// //qclint:allow suppression, and returns the surviving findings
// sorted by position.
func Run(a *Analyzer, t *Target) ([]Finding, error) {
	var diags []Diagnostic
	pass := &Pass{
		Analyzer:  a,
		Fset:      t.Fset,
		Files:     t.Files,
		PkgPath:   t.PkgPath,
		Pkg:       t.Pkg,
		TypesInfo: t.TypesInfo,
		Module:    t.Module,
		Report:    func(d Diagnostic) { diags = append(diags, d) },
	}
	if err := a.Run(pass); err != nil {
		return nil, err
	}
	allowed := allowedLines(t.Fset, t.Files, a.Name)
	var out []Finding
	for _, d := range diags {
		pos := t.Fset.Position(d.Pos)
		if allowed[lineKey{pos.Filename, pos.Line}] {
			continue
		}
		out = append(out, Finding{Analyzer: a.Name, Pos: pos, Message: d.Message})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return out, nil
}

// BasePkgPath strips the "_test" suffix an external test package
// carries, so path-scoped rules cover a package and its black-box
// tests with one prefix.
func BasePkgPath(path string) string {
	return strings.TrimSuffix(path, "_test")
}

// HasPathPrefix reports whether package path p equals prefix or sits
// beneath it on a path-segment boundary ("qcsim/cmd" matches
// "qcsim/cmd/qcserve" but not "qcsim/cmdx").
func HasPathPrefix(p, prefix string) bool {
	return p == prefix || strings.HasPrefix(p, prefix+"/")
}
