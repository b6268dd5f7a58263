// Package detflow is the repository's determinism analyzer. DESIGN.md's
// reproducibility contract (identical output at any worker count, stable
// across runs) holds only if every random draw flows from an explicitly
// seeded *rand.Rand, no result path reads the wall clock, and no map
// iteration order leaks into output. detflow checks that with two
// syntactic rules:
//
//   - Ban mode, in deterministic packages (repro/internal/... minus the
//     lint tooling): the global math/rand generator, the wall clock and
//     timers, any import of crypto/rand, a select with two or more
//     communication clauses (the runtime picks among ready cases at
//     random) and a pointer → uintptr conversion (an address differs
//     between runs) are findings. Seeded constructors stay legal. cmd/
//     and examples/ are I/O shells and exempt.
//   - The map-range rule, in every package: a range over a map is a
//     finding unless it is the collect-then-sort idiom — every statement
//     of the loop body is s = append(s, …) and the same function passes s
//     to a sort.* or slices.* call after the loop.
//
// An order-insensitive loop (keyed stores, integer sums) and the -progress
// timer in internal/experiments carry a "//mehpt:allow detflow -- reason"
// directive. The runtime fingerprint gates remain the backstop for what a
// syntactic rule cannot see.
package detflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the detflow rule.
var Analyzer = &analysis.Analyzer{
	Name: "detflow",
	Doc: "forbid global math/rand, wall-clock time, crypto/rand, multi-case " +
		"select and pointer-to-uintptr conversions in deterministic " +
		"packages, and map ranges other than collect-then-sort everywhere",
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
	if Deterministic(pass.Pkg.Path()) {
		ban(pass)
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					mapRanges(pass, fn.Body)
				}
			case *ast.FuncLit:
				mapRanges(pass, fn.Body)
			}
			return true
		})
	}
	return nil
}

// nondetTimeFuncs are the package time functions that read the wall
// clock or create timers; both depend on real time and scheduling.
var nondetTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "After": true,
	"AfterFunc": true, "Tick": true, "NewTicker": true, "NewTimer": true,
	"Sleep": true,
}

// nondetRandFuncs are the math/rand (and v2) package-level functions that
// use the process-global generator. The seeded constructors (New,
// NewSource, NewZipf, NewPCG, NewChaCha8) and methods on an explicitly
// seeded *rand.Rand are deterministic and not listed.
var nondetRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Int32": true, "Int32N": true,
	"Int64": true, "Int64N": true, "IntN": true, "N": true,
	"Uint": true, "Uint32": true, "Uint32N": true, "Uint64": true,
	"Uint64N": true, "UintN": true, "Float32": true, "Float64": true,
	"ExpFloat64": true, "NormFloat64": true, "Perm": true,
	"Shuffle": true, "Read": true, "Seed": true,
}

// nondetSource reports whether fn is one of the package-level time or
// math/rand functions listed above. crypto/rand is banned at its import.
func nondetSource(fn *types.Func) bool {
	if fn.Pkg() == nil {
		return false
	}
	if sig, _ := fn.Type().(*types.Signature); sig != nil && sig.Recv() != nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "time":
		return nondetTimeFuncs[fn.Name()]
	case "math/rand", "math/rand/v2":
		return nondetRandFuncs[fn.Name()]
	}
	return false
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
			switch n := n.(type) {
			case *ast.SelectorExpr:
				fn, ok := pass.TypesInfo.Uses[n.Sel].(*types.Func)
				if !ok || !nondetSource(fn) {
					return true
				}
				if fn.Pkg().Path() == "time" {
					pass.Reportf(n.Pos(),
						"time.%s reads the wall clock in a deterministic package; results must not depend on real time (rule detflow)",
						fn.Name())
				} else {
					pass.Reportf(n.Pos(),
						"global rand.%s draws from math/rand's shared generator; use an explicitly seeded *rand.Rand (rule detflow)",
						fn.Name())
				}
			case *ast.SelectStmt:
				comms := 0
				for _, c := range n.Body.List {
					if c.(*ast.CommClause).Comm != nil {
						comms++
					}
				}
				if comms >= 2 {
					pass.Reportf(n.Pos(),
						"select with %d communication clauses picks a ready case at random; arrival order must not reach results (rule detflow)",
						comms)
				}
			case *ast.CallExpr:
				if pointerToUintptr(pass.TypesInfo, n) {
					pass.Reportf(n.Pos(),
						"pointer-to-uintptr conversion yields an address that differs between runs (rule detflow)")
				}
			}
			return true
		})
	}
}

// pointerToUintptr reports whether call converts a pointer or an
// unsafe.Pointer to uintptr.
func pointerToUintptr(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call.Fun]
	if !ok || !tv.IsType() || len(call.Args) != 1 {
		return false
	}
	if b, ok := tv.Type.Underlying().(*types.Basic); !ok || b.Kind() != types.Uintptr {
		return false
	}
	switch u := info.TypeOf(call.Args[0]).Underlying().(type) {
	case *types.Pointer:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

// mapRanges reports every map range in body that is not collect-then-sort.
// Function literals are their own functions and are visited by run.
func mapRanges(pass *analysis.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.RangeStmt:
			t := pass.TypesInfo.TypeOf(n.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); isMap && !collectThenSort(pass.TypesInfo, body, n) {
				pass.Reportf(n.Pos(),
					"range over a map visits keys in random order; append them to a slice and sort it, or waive an order-insensitive loop (rule detflow)")
			}
		}
		return true
	})
}

// collectThenSort reports whether every statement of rs's body is
// s = append(s, …) for one slice s, and body itself (not a function
// literal inside it) passes s to a sort or slices call after the loop.
func collectThenSort(info *types.Info, body *ast.BlockStmt, rs *ast.RangeStmt) bool {
	var s types.Object
	for _, st := range rs.Body.List {
		obj := appendTarget(info, st)
		if obj == nil || (s != nil && obj != s) {
			return false
		}
		s = obj
	}
	if s == nil {
		return false
	}
	sorted := false
	ast.Inspect(body, func(n ast.Node) bool {
		if _, lit := n.(*ast.FuncLit); lit || sorted {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() || !isSortCall(info, call) {
			return true
		}
		for _, a := range call.Args {
			if id, ok := ast.Unparen(a).(*ast.Ident); ok && info.Uses[id] == s {
				sorted = true
			}
		}
		return true
	})
	return sorted
}

// appendTarget returns s when st is s = append(s, …), else nil.
func appendTarget(info *types.Info, st ast.Stmt) types.Object {
	as, ok := st.(*ast.AssignStmt)
	if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return nil
	}
	lhs, ok := as.Lhs[0].(*ast.Ident)
	if !ok {
		return nil
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return nil
	}
	if fn, ok := call.Fun.(*ast.Ident); !ok || info.Uses[fn] != types.Universe.Lookup("append") {
		return nil
	}
	if first, ok := call.Args[0].(*ast.Ident); !ok || info.Uses[first] != info.Uses[lhs] {
		return nil
	}
	return info.Uses[lhs]
}

// isSortCall recognizes calls into package sort or slices.
func isSortCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return false
	}
	path := pn.Imported().Path()
	return path == "sort" || path == "slices"
}
