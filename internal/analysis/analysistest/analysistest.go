// Package analysistest runs an analyzer over golden packages under a
// testdata directory and compares its diagnostics against expectations
// written in the sources, mirroring golang.org/x/tools' analysistest:
//
//	rand.Intn(6) // want `global rand\.Intn`
//
// Each `want` clause holds one or more quoted regular expressions; every
// diagnostic on that line must match one of them and vice versa. Golden
// packages live in testdata/src/<importpath>/ (GOPATH-style), so a
// package can claim a repo-like import path (repro/internal/simx) and
// exercise path-sensitive analyzers such as detflow.
package analysistest

import (
	"fmt"
	"go/token"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"repro/internal/analysis"
)

const wantMarker = "// want "

// TB is the slice of testing.TB the harness needs. It exists so the
// harness itself can be meta-tested: the tests in this package drive Run
// with a recording TB and assert that unexpected and missing diagnostics
// are both reported.
type TB interface {
	Helper()
	Errorf(format string, args ...any)
	Fatalf(format string, args ...any)
}

// Run loads each golden package, applies the analyzer (including the
// //mehpt:allow suppression pass), and reports mismatches on t. All
// packages are loaded through one shared loader before the analyzer's
// Finish hook (if any) runs, so whole-run audits like staleallow see the
// same multi-package view they get under the real driver. Expectations
// are checked globally: a `want` comment in any listed package may be
// satisfied by a per-package or a Finish diagnostic.
func Run(t TB, a *analysis.Analyzer, testdata string, pkgPaths ...string) {
	t.Helper()
	RunSuite(t, []*analysis.Analyzer{a}, testdata, pkgPaths...)
}

// RunSuite is Run for several analyzers at once: every listed analyzer
// runs over every golden package, and the combined diagnostics (including
// Finish-phase ones) are checked against the want expectations. Audits
// like staleallow need this — a waiver only counts as used when the
// analyzer it waives actually runs alongside.
func RunSuite(t TB, analyzers []*analysis.Analyzer, testdata string, pkgPaths ...string) {
	t.Helper()
	loader := analysis.NewLoader(analysis.TestdataResolver(testdata + "/src"))
	var pkgs []*analysis.Package
	var diags []analysis.Diagnostic
	var expects []*expectation
	for _, path := range pkgPaths {
		pkg, err := loader.Load(path)
		if err != nil {
			t.Fatalf("loading %s: %v", path, err)
		}
		pkgs = append(pkgs, pkg)
		ds, err := analysis.RunAnalyzers(pkg, analyzers)
		if err != nil {
			t.Fatalf("running analyzers on %s: %v", path, err)
		}
		diags = append(diags, ds...)
		es, err := collectExpectations(pkg)
		if err != nil {
			t.Fatalf("parsing want comments in %s: %v", path, err)
		}
		expects = append(expects, es...)
	}
	fds, err := analysis.RunFinishers(loader, pkgs, analyzers, nil)
	if err != nil {
		t.Fatalf("running finish hooks: %v", err)
	}
	diags = append(diags, fds...)
	check(t, loader.Fset, diags, expects)
}

// expectation is one unmatched `want` regexp at a file line.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
}

func collectExpectations(pkg *analysis.Package) ([]*expectation, error) {
	var expects []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				idx := strings.Index(c.Text, wantMarker)
				if idx < 0 {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				rest := strings.TrimSpace(c.Text[idx+len(wantMarker):])
				for rest != "" {
					q, err := strconv.QuotedPrefix(rest)
					if err != nil {
						return nil, fmt.Errorf("%s: bad want clause %q", pos, rest)
					}
					pat, err := strconv.Unquote(q)
					if err != nil {
						return nil, fmt.Errorf("%s: %w", pos, err)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						return nil, fmt.Errorf("%s: %w", pos, err)
					}
					expects = append(expects, &expectation{pos.Filename, pos.Line, re})
					rest = strings.TrimSpace(rest[len(q):])
				}
			}
		}
	}
	return expects, nil
}

func check(t TB, fset *token.FileSet, diags []analysis.Diagnostic, expects []*expectation) {
	t.Helper()
	matched := make([]bool, len(expects))
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		found := false
		for i, e := range expects {
			if !matched[i] && e.file == pos.Filename && e.line == pos.Line && e.re.MatchString(d.Message) {
				matched[i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: unexpected diagnostic [%s]: %s", relPos(pos), d.Analyzer, d.Message)
		}
	}
	var missing []string
	for i, e := range expects {
		if !matched[i] {
			missing = append(missing, fmt.Sprintf("%s:%d: no diagnostic matching %q", e.file, e.line, e.re))
		}
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Errorf("%s", m)
	}
}

func relPos(pos token.Position) string {
	if i := strings.Index(pos.Filename, "testdata/"); i >= 0 {
		return fmt.Sprintf("%s:%d:%d", pos.Filename[i:], pos.Line, pos.Column)
	}
	return pos.String()
}
