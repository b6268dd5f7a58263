package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file is the type-aware core of the hot-path analyzer: per-function
// summaries (direct allocation sites, static call edges, dynamic call
// sites), computed lazily per package and cached on the Loader, so queries
// cross package boundaries — cross-package fact export in the x/tools
// sense, without leaving the stdlib. Traversal stops at the standard
// library: std behaviour comes from the curated tables at the bottom of
// this file, never from walking std sources.

// Site is one operation of interest inside a function body.
type Site struct {
	Pos  token.Pos
	Desc string // e.g. "make([]T)", "append may grow"
	// stmtLine is the starting line of the enclosing statement, for
	// multi-line-aware //mehpt:allow matching at the site itself.
	stmtLine int
}

// CallSite is one statically resolved call edge.
type CallSite struct {
	Site
	Callee *types.Func
}

// DynSite is a call that cannot be statically resolved: through an
// interface method or a func value.
type DynSite struct {
	Site
	Iface *types.Func // the interface method, nil for func-value calls
}

// FuncSummary describes one function's direct behaviour.
type FuncSummary struct {
	Fn       *types.Func
	Allocs   []Site
	Calls    []CallSite
	Dynamics []DynSite
	// Decl/File retain the summarized syntax so flow-sensitive passes
	// (the taint engine in taint.go) can re-walk the body on demand.
	Decl *ast.FuncDecl
	File *ast.File
}

// PkgFacts is everything the fact engine knows about one package: the
// function summaries plus the annotation table and the allow set (so a
// site waived where it occurs stays waived when reached from another
// package).
type PkgFacts struct {
	Pkg    *Package
	Funcs  map[*types.Func]*FuncSummary
	Ann    *Annotations
	allows *AllowSet
	// taint caches per-function taint summaries (taint.go).
	taint map[*types.Func]*TaintSummary
}

// SiteWaived reports whether the site carries an //mehpt:allow for the
// analyzer in its own package — the waiver that makes a deliberate
// allocation invisible to every hot caller at once.
func (pf *PkgFacts) SiteWaived(s Site, analyzer string) bool {
	return pf.allows.Allows(pf.Pkg.Fset, s.Pos, s.stmtLine, analyzer)
}

// Facts answers cross-package questions for one analysis run. It is handed
// to analyzers through Pass.Facts.
type Facts struct {
	loader *Loader
}

// PackageFacts returns the fact table for the package at path, computing
// and caching it on first use. Standard-library packages return nil: their
// behaviour is modelled by StdAlloc instead.
func (f *Facts) PackageFacts(path string) (*PkgFacts, error) {
	if f == nil || f.loader == nil {
		return nil, nil
	}
	if pf, ok := f.loader.facts[path]; ok {
		return pf, nil
	}
	pkg, err := f.loader.Load(path)
	if err != nil {
		return nil, err
	}
	if pkg.Std {
		f.loader.facts[path] = nil
		return nil, nil
	}
	pf := computeFacts(pkg)
	f.loader.facts[path] = pf
	return pf, nil
}

// SummaryOf returns fn's summary, or nil when fn is a standard-library
// function, an interface method, or otherwise has no body to summarize.
func (f *Facts) SummaryOf(fn *types.Func) *FuncSummary {
	pf := f.factsFor(fn)
	if pf == nil {
		return nil
	}
	return pf.Funcs[fn]
}

// IsHot reports whether fn (a function, method, or interface method)
// carries a //mehpt:hotpath annotation in its defining package.
func (f *Facts) IsHot(fn *types.Func) bool {
	pf := f.factsFor(fn)
	return pf != nil && pf.Ann.Hot[fn]
}

func (f *Facts) factsFor(fn *types.Func) *PkgFacts {
	if fn == nil || fn.Pkg() == nil {
		return nil
	}
	pf, err := f.PackageFacts(fn.Pkg().Path())
	if err != nil {
		return nil
	}
	return pf
}

// computeFacts walks every function body in pkg and records its direct
// behaviour. Sites inside panic(...) arguments are skipped: the dying path
// may format as it pleases.
func computeFacts(pkg *Package) *PkgFacts {
	pf := &PkgFacts{
		Pkg:   pkg,
		Funcs: map[*types.Func]*FuncSummary{},
		Ann:   CollectAnnotations(pkg),
		taint: map[*types.Func]*TaintSummary{},
	}
	pf.allows, _ = pkg.loader.AllowsFor(pkg)
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			sum := &FuncSummary{Fn: fn, Decl: fd, File: f}
			collectSites(pkg, f, fd.Body, sum)
			pf.Funcs[fn] = sum
		}
	}
	return pf
}

// collectSites fills sum from one function body. Bodies of function
// literals are not descended into — creating the closure is itself
// recorded as an allocation site, and the literal's behaviour belongs to
// whoever calls it.
func collectSites(pkg *Package, file *ast.File, body *ast.BlockStmt, sum *FuncSummary) {
	info := pkg.Info
	site := func(pos token.Pos, desc string) Site {
		return Site{Pos: pos, Desc: desc,
			stmtLine: StmtStartLine(pkg.Fset, []*ast.File{file}, pos)}
	}
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			sum.Allocs = append(sum.Allocs, site(n.Pos(), "func literal (closure allocation)"))
			return false
		case *ast.GoStmt:
			sum.Allocs = append(sum.Allocs, site(n.Pos(), "go statement (goroutine allocation)"))
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isString(info, n) {
				sum.Allocs = append(sum.Allocs, site(n.Pos(), "string concatenation"))
			}
		case *ast.CompositeLit:
			switch info.TypeOf(n).Underlying().(type) {
			case *types.Slice:
				sum.Allocs = append(sum.Allocs, site(n.Pos(), "slice literal"))
			case *types.Map:
				sum.Allocs = append(sum.Allocs, site(n.Pos(), "map literal"))
			}
		case *ast.CallExpr:
			if isPanicCall(info, n) {
				// The dying path: skip the argument subtree entirely.
				return false
			}
			collectCall(pkg, site, n, sum)
		}
		return true
	}
	ast.Inspect(body, walk)
}

// collectCall classifies one call expression: builtin allocation, type
// conversion (boxing / string conversion), static call edge, or dynamic
// call site.
func collectCall(pkg *Package, site func(token.Pos, string) Site, call *ast.CallExpr, sum *FuncSummary) {
	info := pkg.Info
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if b, ok := info.Uses[fun].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				sum.Allocs = append(sum.Allocs, site(call.Pos(), "make"))
			case "new":
				sum.Allocs = append(sum.Allocs, site(call.Pos(), "new"))
			case "append":
				sum.Allocs = append(sum.Allocs, site(call.Pos(), "append may grow its backing array"))
			}
			return
		}
	}
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		// A conversion, not a call.
		to := tv.Type
		if len(call.Args) == 1 {
			from := info.TypeOf(call.Args[0])
			if boxes(from, to) {
				sum.Allocs = append(sum.Allocs, site(call.Pos(),
					fmt.Sprintf("interface boxing (%s to %s)", types.TypeString(from, nil), types.TypeString(to, nil))))
			} else if stringConv(from, to) {
				sum.Allocs = append(sum.Allocs, site(call.Pos(), "string conversion copies"))
			}
		}
		return
	}
	// Variadic ...interface{} args box their operands (the fmt shape).
	if callee := CalleeFunc(info, call); callee != nil {
		sig, _ := callee.Type().(*types.Signature)
		if sig != nil && sig.Variadic() {
			if last := sig.Params().At(sig.Params().Len() - 1); last != nil {
				if elem, ok := last.Type().(*types.Slice); ok && types.IsInterface(elem.Elem()) {
					for i := sig.Params().Len() - 1; i < len(call.Args); i++ {
						if i < 0 || i >= len(call.Args) {
							continue
						}
						if boxes(info.TypeOf(call.Args[i]), elem.Elem()) {
							sum.Allocs = append(sum.Allocs, site(call.Args[i].Pos(), "interface boxing (variadic any argument)"))
						}
					}
				}
			}
		}
		if callee.Pkg() == nil {
			return // error.Error and friends on the universe scope
		}
		if recvIsInterface(callee) {
			sum.Dynamics = append(sum.Dynamics, DynSite{
				Site:  site(call.Pos(), "call through interface method "+callee.Pkg().Name()+"."+callee.Name()),
				Iface: callee,
			})
			return
		}
		sum.Calls = append(sum.Calls, CallSite{Site: site(call.Pos(), "call"), Callee: callee})
		return
	}
	// Not a named function or method: a func-value call.
	sum.Dynamics = append(sum.Dynamics, DynSite{
		Site: site(call.Pos(), "call through func value")})
}

// calleeFunc resolves the *types.Func a call targets, or nil for func
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

// recvIsInterface reports whether fn is an interface method.
func recvIsInterface(fn *types.Func) bool {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return false
	}
	return types.IsInterface(sig.Recv().Type())
}

// boxes reports whether assigning a value of type from to type to heap-
// allocates an interface box: to is an interface, from is a concrete
// non-pointer type (pointers are stored directly in the interface word).
func boxes(from, to types.Type) bool {
	if from == nil || to == nil || !types.IsInterface(to) || types.IsInterface(from) {
		return false
	}
	switch from.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false
	}
	if b, ok := from.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return false
	}
	return true
}

// stringConv reports string<->[]byte/[]rune conversions, which copy.
func stringConv(from, to types.Type) bool {
	isStr := func(t types.Type) bool {
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isByteish := func(t types.Type) bool {
		s, ok := t.Underlying().(*types.Slice)
		if !ok {
			return false
		}
		b, ok := s.Elem().Underlying().(*types.Basic)
		return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
	}
	return (isStr(from) && isByteish(to)) || (isByteish(from) && isStr(to))
}

func isString(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isPanicCall(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "panic"
}

// ---- transitive reachability -------------------------------------------

// Finding is the result of a transitive reach query: the chain of calls
// from the queried function to the offending site.
type Finding struct {
	// Pos is a position in the queried function's own body: the offending
	// site itself when local, or the call that leads to it when the site
	// is in a callee. Diagnostics anchor here so waivers stay local.
	Pos   token.Pos
	Chain []string // function names, queried function first
	Site  Site     // the offending site (position in its own package)
	Desc  string   // rendered site description with position
}

// Reach memoizes transitive queries over the call-graph facts. One Reach
// per (analyzer, package) pass; the analyzer name scopes site waivers.
type Reach struct {
	Facts    *Facts
	Analyzer string
	// Kind selects which sites terminate a query.
	Kind ReachKind
	memo map[*types.Func]*Finding
	walk map[*types.Func]bool
}

// ReachKind selects the site class a Reach query hunts.
type ReachKind int

// Reach kinds: heap allocations, or unanalyzable dynamic calls (interface
// methods not annotated //mehpt:hotpath, and func-value calls).
const (
	ReachAlloc ReachKind = iota
	ReachDyn
)

// NewReach builds a reach engine for one analyzer pass.
func NewReach(facts *Facts, analyzer string, kind ReachKind) *Reach {
	return &Reach{Facts: facts, Analyzer: analyzer, Kind: kind,
		memo: map[*types.Func]*Finding{}, walk: map[*types.Func]bool{}}
}

// First returns the first offending site reachable from fn (including
// fn's own body), or nil. Dynamic call sites are not traversed — the
// caller decides how to treat them via the summary's Dynamics list.
// Sites waived for the analyzer in their own package are invisible.
func (r *Reach) First(fn *types.Func) *Finding {
	if f, ok := r.memo[fn]; ok {
		return f
	}
	if r.walk[fn] {
		return nil // cycle: the first visit owns the answer
	}
	r.walk[fn] = true
	defer delete(r.walk, fn)

	found := r.first(fn)
	r.memo[fn] = found
	return found
}

func (r *Reach) first(fn *types.Func) *Finding {
	pf := r.Facts.factsFor(fn)
	if pf == nil {
		// Standard library (or bodiless): consult the curated tables.
		if desc, bad := r.stdOffends(fn); bad {
			return &Finding{Chain: []string{funcName(fn)}, Desc: desc}
		}
		return nil
	}
	sum := pf.Funcs[fn]
	if sum == nil {
		return nil
	}
	for _, s := range r.sitesOf(sum) {
		if pf.SiteWaived(s, r.Analyzer) {
			continue
		}
		return &Finding{Pos: s.Pos, Chain: []string{funcName(fn)}, Site: s,
			Desc: fmt.Sprintf("%s at %s", s.Desc, relPosition(pf.Pkg.Fset.Position(s.Pos)))}
	}
	for _, c := range sum.Calls {
		// A waiver on the call site prunes everything reachable through it.
		if pf.SiteWaived(c.Site, r.Analyzer) {
			continue
		}
		if sub := r.First(c.Callee); sub != nil {
			return &Finding{
				Pos:   c.Pos,
				Chain: append([]string{funcName(fn)}, sub.Chain...),
				Site:  sub.Site,
				Desc:  sub.Desc,
			}
		}
	}
	return nil
}

// sitesOf selects the summary's site list for the reach kind. For
// ReachDyn, dynamic calls through //mehpt:hotpath-annotated interface
// methods are not offending: the annotation is a contract boundary, and
// every implementation carries its own annotation and is checked directly.
func (r *Reach) sitesOf(sum *FuncSummary) []Site {
	switch r.Kind {
	case ReachDyn:
		var sites []Site
		for _, d := range sum.Dynamics {
			if d.Iface != nil && r.Facts.IsHot(d.Iface) {
				continue
			}
			sites = append(sites, d.Site)
		}
		return sites
	default:
		return sum.Allocs
	}
}

// stdOffends consults the curated standard-library tables.
func (r *Reach) stdOffends(fn *types.Func) (string, bool) {
	if r.Kind == ReachDyn {
		return "", false
	}
	return StdAlloc(fn)
}

// funcName renders pkg.Func or pkg.(Type).Method.
func funcName(fn *types.Func) string {
	if fn.Pkg() == nil {
		return fn.Name()
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			return fn.Pkg().Name() + "." + n.Obj().Name() + "." + fn.Name()
		}
	}
	return fn.Pkg().Name() + "." + fn.Name()
}

func relPosition(pos token.Position) string {
	name := pos.Filename
	if i := strings.LastIndex(name, "/internal/"); i >= 0 {
		name = name[i+1:]
	}
	return fmt.Sprintf("%s:%d", name, pos.Line)
}

// ---- curated standard-library behaviour --------------------------------

// stdAllocPkgs are std packages whose exported functions are assumed to
// allocate. The table is deliberately coarse: a hot path has no business
// calling into any of these.
var stdAllocPkgs = map[string]bool{
	"fmt": true, "strings": true, "strconv": true, "sort": true,
	"errors": true, "bytes": true, "bufio": true, "io": true, "os": true,
	"log": true, "regexp": true, "reflect": true, "encoding/json": true,
	"encoding/binary": true, "encoding/hex": true, "encoding/csv": true,
	"crypto/sha256": true, "slices": true, "maps": true,
}

// stdSafePkgs never allocate on any call path the simulator uses.
var stdSafePkgs = map[string]bool{
	"math": true, "math/bits": true, "sync/atomic": true, "unsafe": true,
	"math/rand": true, "hash/crc64": true, "hash/crc32": true,
}

// StdAlloc reports whether a standard-library function is known to
// allocate. Functions in neither table are treated as silent — the curated
// list trades exhaustiveness for zero false positives on packages like
// runtime or sync.
func StdAlloc(fn *types.Func) (string, bool) {
	pkg := fn.Pkg()
	if pkg == nil {
		return "", false
	}
	if stdSafePkgs[pkg.Path()] {
		return "", false
	}
	if stdAllocPkgs[pkg.Path()] {
		return fmt.Sprintf("%s.%s allocates", pkg.Name(), fn.Name()), true
	}
	return "", false
}
