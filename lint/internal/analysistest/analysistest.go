// Package analysistest runs one analyzer over fixture packages under a
// testdata/src tree and checks its findings against // want
// expectations, mirroring golang.org/x/tools/go/analysis/analysistest.
//
// An expectation is a comment on the offending line:
//
//	rand.Intn(3) // want "breaks bit-identity"
//
// Each quoted string is a regexp that must match exactly one finding
// reported on that line; findings with no matching expectation, and
// expectations with no matching finding, fail the test. The marker may
// ride any comment — including at the tail of a //qclint:allow
// directive, whose reason parsing stops at the embedded "//".
package analysistest

import (
	"go/ast"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"qcsim/lint/internal/analysis"
	"qcsim/lint/internal/load"
)

// TestData returns the absolute path of the calling test's testdata
// directory.
func TestData() string {
	p, err := filepath.Abs("testdata")
	if err != nil {
		panic(err)
	}
	return p
}

// Run loads each fixture package, applies the analyzer (with
// //qclint:allow suppression, exactly as the driver does), and
// reports mismatches against the fixtures' // want expectations. The
// loaded fixtures together form the run's module (Pass.Module).
func Run(t *testing.T, srcRoot string, a *analysis.Analyzer, pkgPaths ...string) {
	t.Helper()
	var pkgs []*load.Package
	var module []*analysis.Target
	for _, path := range pkgPaths {
		pkg, err := load.LoadFixture(srcRoot, path)
		if err != nil {
			t.Errorf("loading fixture %q: %v", path, err)
			continue
		}
		pkgs = append(pkgs, pkg)
		module = append(module, pkg.Target())
	}
	for i, pkg := range pkgs {
		module[i].Module = module
		findings, err := analysis.Run(a, module[i])
		if err != nil {
			t.Errorf("running %s on %q: %v", a.Name, pkg.PkgPath, err)
			continue
		}
		checkExpectations(t, pkg, findings)
	}
}

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	text string
	met  bool
}

func checkExpectations(t *testing.T, pkg *load.Package, findings []analysis.Finding) {
	t.Helper()
	var wants []*expectation
	for _, f := range pkg.Syntax {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				pos := pkg.Fset.Position(c.Pos())
				for _, pat := range wantPatterns(t, c, pos.String()) {
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Errorf("%s: bad want regexp %q: %v", pos, pat, err)
						continue
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re, text: pat})
				}
			}
		}
	}
	for _, fd := range findings {
		matched := false
		for _, w := range wants {
			if !w.met && w.file == fd.Pos.Filename && w.line == fd.Pos.Line && w.re.MatchString(fd.Message) {
				w.met = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected finding: %s", fd.Pos, fd.Message)
		}
	}
	for _, w := range wants {
		if !w.met {
			t.Errorf("%s:%d: no finding matched want %q", w.file, w.line, w.text)
		}
	}
}

// wantPatterns extracts the quoted regexps of a "// want" marker
// anywhere inside the comment's text.
func wantPatterns(t *testing.T, c *ast.Comment, pos string) []string {
	t.Helper()
	const marker = "// want "
	i := strings.Index(c.Text, marker)
	if i < 0 {
		if strings.HasPrefix(c.Text, "// want\"") {
			t.Errorf("%s: malformed want marker (missing space)", pos)
		}
		return nil
	}
	rest := strings.TrimSpace(c.Text[i+len(marker):])
	var pats []string
	for rest != "" {
		q, err := strconv.QuotedPrefix(rest)
		if err != nil {
			t.Errorf("%s: malformed want expectation %q: %v", pos, rest, err)
			return pats
		}
		unq, err := strconv.Unquote(q)
		if err != nil {
			t.Errorf("%s: malformed want expectation %q: %v", pos, q, err)
			return pats
		}
		pats = append(pats, unq)
		rest = strings.TrimSpace(rest[len(q):])
	}
	if len(pats) == 0 {
		t.Errorf("%s: want marker with no expectations", pos)
	}
	return pats
}
