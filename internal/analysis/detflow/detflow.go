// Package detflow is the repository's determinism analyzer. DESIGN.md's
// reproducibility contract (identical output at any worker count, stable
// across runs) holds only if every random draw flows from an explicitly
// seeded *rand.Rand, no result path reads the wall clock, and no map
// iteration order leaks into output. detflow checks that in two modes
// over one source table (internal/analysis/taint.go):
//
//   - Ban mode, in deterministic packages (repro/internal/... minus the
//     lint tooling): every use of a listed source is a finding. That is
//     the global math/rand generator, the wall clock and timers, and any
//     import of crypto/rand. Seeded constructors stay legal. cmd/ and
//     examples/ are I/O shells and exempt.
//   - Flow mode, in every package: the engine follows the VALUE of a
//     source through assignments, expressions, and cross-package call
//     summaries. Any nondeterministic value reaching a fingerprint
//     computation, the stats layer, or snapshot state is a finding. Map
//     iteration order is also a finding when it reaches an output writer,
//     a seed or hash derivation, or an unsorted slice returned from the
//     function; collect-then-sort and keyed map insertion clear it.
//
// The engine tracks explicit flows only (no control dependence, no
// cross-goroutine channel flow); the runtime fingerprint determinism gate
// remains the backstop for what it cannot see. Legitimate wall-clock uses
// (the -progress timer in internal/experiments) carry a
// "//mehpt:allow detflow -- reason" directive.
package detflow

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the detflow rule.
var Analyzer = &analysis.Analyzer{
	Name: "detflow",
	Doc: "forbid global math/rand, wall-clock time, and crypto/rand in " +
		"deterministic packages, and flag dataflow from nondeterministic " +
		"sources (wall clock, global rand, map/select ordering, pointer " +
		"addresses) into fingerprints, stats, snapshot state, output, " +
		"seeds, or returned slices",
	Run: run,
}

// Deterministic reports whether the package at path falls under the
// determinism contract: the whole simulator core (repro/internal/...)
// except the lint tooling itself, which legitimately measures its own
// wall time. cmd/ and examples/ are I/O shells and exempt.
func Deterministic(path string) bool {
	if !strings.HasPrefix(path, "repro/internal/") {
		return false
	}
	return !strings.HasPrefix(path, "repro/internal/analysis")
}

func run(pass *analysis.Pass) error {
	path := pass.Pkg.Path()
	if Deterministic(path) {
		ban(pass)
	}
	hits, err := pass.Facts.TaintHits(path)
	if err != nil {
		return err
	}
	var flat []analysis.SinkHit
	for _, hs := range hits {
		flat = append(flat, hs...)
	}
	sort.Slice(flat, func(i, j int) bool { return flat[i].Pos < flat[j].Pos })
	for _, h := range flat {
		pass.Reportf(h.Pos, "%s (rule detflow)", analysis.TaintDesc(h))
	}
	return nil
}

// ban reports every use of a nondeterministic source. crypto/rand is
// reported once, at its import.
func ban(pass *analysis.Pass) {
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			if strings.Trim(imp.Path.Value, `"`) == "crypto/rand" {
				pass.Reportf(imp.Pos(),
					"crypto/rand is nondeterministic; derive randomness from an explicitly seeded *math/rand.Rand (rule detflow)")
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok {
				return true
			}
			if _, src := analysis.NondetSource(fn); !src {
				return true
			}
			switch fn.Pkg().Path() {
			case "time":
				pass.Reportf(sel.Pos(),
					"time.%s reads the wall clock in a deterministic package; results must not depend on real time (rule detflow)",
					fn.Name())
			case "math/rand", "math/rand/v2":
				pass.Reportf(sel.Pos(),
					"global rand.%s draws from math/rand's shared generator; use an explicitly seeded *rand.Rand (rule detflow)",
					fn.Name())
			}
			return true
		})
	}
}
