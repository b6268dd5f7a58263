// Package analysis is a minimal, stdlib-only reimplementation of the
// golang.org/x/tools/go/analysis vocabulary: an Analyzer inspects the
// type-checked syntax of one package through a Pass and reports
// Diagnostics. The repository is deliberately dependency-free, so instead
// of importing x/tools we keep the same shape (Analyzer.Name/Doc/Run,
// Pass.Fset/Files/Pkg/TypesInfo, Reportf) on top of go/ast, go/types and a
// small source loader (loader.go). Should the module ever grow an x/tools
// dependency, the analyzers port over mechanically.
//
// The suite exists to enforce DESIGN.md's determinism and unit-safety
// invariants at tier-1 time; see the analyzer packages under
// internal/analysis/... and the multichecker in cmd/mehpt-lint.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"time"
)

// Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the rule in diagnostics and in //mehpt:allow
	// directives. Lower-case, no spaces.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run inspects one package and reports findings via pass.Reportf.
	Run func(*Pass) error
	// Finish, when non-nil, runs once after every package in the run has
	// been analyzed. It is the hook for whole-run audits (staleallow's
	// dead-waiver scan).
	// Finish diagnostics are NOT subject to //mehpt:allow suppression: a
	// finding about a directive is fixed by editing the directive, not by
	// stacking another waiver on top of it.
	Finish func(*FinishPass) error
}

// Pass is the per-(analyzer, package) unit of work.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// FinishPass is the whole-run view handed to Analyzer.Finish.
type FinishPass struct {
	Analyzer *Analyzer
	Loader   *Loader
	// Packages are the packages analyzed during the run, in analysis order.
	Packages []*Package
	// Ran names every analyzer that participated in the run (including
	// this one). Audits consult it so a subset run (-analyzers a,b) never
	// judges waivers for rules that did not execute.
	Ran []string

	diags *[]Diagnostic
}

// Reportf records a whole-run finding at pos.
func (p *FinishPass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, attributed to the analyzer that produced it.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Metrics accumulates one analyzer's run statistics for the -json report:
// surviving findings, diagnostics a //mehpt:allow directive suppressed,
// and wall time spent inside the analyzer (Run over every package, plus
// Finish).
type Metrics struct {
	Name       string
	Findings   int
	Suppressed int
	Elapsed    time.Duration
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// RunAnalyzers applies each analyzer to pkg, filters out findings
// suppressed by //mehpt:allow directives, and appends diagnostics for
// malformed directives. Diagnostics come back sorted by position.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	return runAnalyzers(pkg, analyzers, nil)
}

// runAnalyzers is RunAnalyzers with an optional per-analyzer metrics
// accumulator (keyed by analyzer name; entries must pre-exist).
func runAnalyzers(pkg *Package, analyzers []*Analyzer, metrics map[string]*Metrics) ([]Diagnostic, error) {
	allows, diags := pkg.loader.AllowsFor(pkg)
	for _, a := range analyzers {
		var raw []Diagnostic
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			diags:     &raw,
		}
		start := time.Now()
		err := a.Run(pass)
		m := metrics[a.Name]
		if m != nil {
			m.Elapsed += time.Since(start)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
		}
		for _, d := range raw {
			stmtLine := StmtStartLine(pkg.Fset, pkg.Files, d.Pos)
			if allows.Allows(pkg.Fset, d.Pos, stmtLine, a.Name) {
				if m != nil {
					m.Suppressed++
				}
			} else {
				diags = append(diags, d)
				if m != nil {
					m.Findings++
				}
			}
		}
	}
	sort.SliceStable(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags, nil
}

// RunFinishers invokes the Finish hook of every analyzer that has one,
// after all packages of the run have been through runAnalyzers. Finish
// diagnostics bypass //mehpt:allow suppression by design.
func RunFinishers(loader *Loader, pkgs []*Package, analyzers []*Analyzer, metrics map[string]*Metrics) ([]Diagnostic, error) {
	ran := make([]string, 0, len(analyzers))
	for _, a := range analyzers {
		ran = append(ran, a.Name)
	}
	var diags []Diagnostic
	for _, a := range analyzers {
		if a.Finish == nil {
			continue
		}
		var raw []Diagnostic
		fp := &FinishPass{
			Analyzer: a,
			Loader:   loader,
			Packages: pkgs,
			Ran:      ran,
			diags:    &raw,
		}
		start := time.Now()
		err := a.Finish(fp)
		if m := metrics[a.Name]; m != nil {
			m.Elapsed += time.Since(start)
			m.Findings += len(raw)
		}
		if err != nil {
			return nil, fmt.Errorf("%s (finish): %w", a.Name, err)
		}
		diags = append(diags, raw...)
	}
	sort.SliceStable(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags, nil
}

// CalleeFunc resolves the *types.Func a call targets, or nil for func
// values.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn
			}
			return nil // field of func type
		}
		// Package-qualified call: pkg.Func.
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}
