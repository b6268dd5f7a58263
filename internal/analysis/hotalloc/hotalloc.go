// Package hotalloc enforces the zero-allocation contract of the
// translation pipeline statically. Functions annotated //mehpt:hotpath —
// the Translate→TLB→walk→cache chain that the tier-1 AllocsPerRun tests
// measure at runtime — must not reach a heap allocation through any
// statically resolvable call chain: no make/new, no append growth, no
// map/slice literals, no interface boxing, no closures, no string
// concatenation, and no calls into allocating standard-library packages
// such as fmt. It is the static twin of those tests: they prove the inputs
// they ran were clean, hotalloc proves every build cannot regress them.
//
// Dynamic calls (interface methods, func values) cannot be traversed, so
// they are findings too — unless the interface method itself carries
// //mehpt:hotpath, which declares a contract boundary: implementations
// are annotated and checked directly. Deliberate allocations (one-time
// warm-up growth, fault paths) are waived at the offending site with
// //mehpt:allow hotalloc, which also clears every hot caller that reaches
// the site.
package hotalloc

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer flags heap allocations reachable from //mehpt:hotpath
// functions.
var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc: "//mehpt:hotpath functions must not reach heap allocations or " +
		"unanalyzable dynamic calls through the static call graph",
	Run: run,
}

func run(pass *analysis.Pass) error {
	allocs := analysis.NewReach(pass.Facts, "hotalloc", analysis.ReachAlloc)
	dyns := analysis.NewReach(pass.Facts, "hotalloc", analysis.ReachDyn)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if fn == nil || !pass.Ann.Hot[fn] {
				continue
			}
			if f := allocs.First(fn); f != nil {
				pass.Reportf(f.Pos, "hot path %s reaches heap allocation: %s (chain %s)",
					f.Chain[0], f.Desc, strings.Join(f.Chain, " -> "))
			}
			if f := dyns.First(fn); f != nil {
				pass.Reportf(f.Pos, "hot path %s makes an unanalyzable dynamic call: %s (chain %s); annotate the interface method //mehpt:hotpath or waive the site",
					f.Chain[0], f.Desc, strings.Join(f.Chain, " -> "))
			}
		}
	}
	return nil
}
