package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file is the determinism-taint engine behind the detflow analyzer:
// a flow-sensitive, context-insensitive dataflow pass that tracks values
// produced by nondeterministic sources (wall clock, global math/rand,
// map iteration order, select arrival order, pointer→uintptr conversions)
// through assignments, expressions, and cross-package call summaries, and
// records where such a value reaches a determinism sink (fingerprint
// computation, the stats layer, snapshot state) or map iteration order
// reaches an order sink (output writer, seed/hash derivation, returned
// slice). Summaries are cached on PkgFacts (facts.go), so queries cross
// package boundaries without leaving the stdlib — the taint analogue of
// the x/tools fact export.
//
// The engine tracks explicit value flow only: taint moves through
// assignments, operators, composite literals, and call results/arguments,
// not through control dependence (a branch on a tainted condition does
// not taint the branches) and not across goroutines (a plain channel
// receive is untainted; multi-case select arrival order IS a source). The
// runtime fingerprint determinism gate remains the backstop for those.

// TaintOrigin describes the nondeterministic source a tainted value came
// from: the site in the originating function plus a human-readable chain.
// Order marks order-class taint (map iteration), which the engine's
// sanitizers (map re-keying, sorting) can clear; hard taint they cannot.
type TaintOrigin struct {
	Pos   token.Pos
	Desc  string
	Order bool
}

// SinkHit is one local determinism violation: a nondeterministically
// tainted value reaching a sink inside the summarized function.
type SinkHit struct {
	Pos    token.Pos // the offending expression/assignment in this function
	Sink   string    // which sink class was reached
	Origin *TaintOrigin
}

// TaintSummary is one function's exported taint behaviour.
type TaintSummary struct {
	// Returns is non-nil when some result of the function may carry a
	// value from a nondeterministic source reached in its own body or in
	// a callee.
	Returns *TaintOrigin
	// ParamFlow[i] reports whether parameter i may flow into a result.
	ParamFlow []bool
	// ParamSink[i] is nonempty when parameter i reaches a determinism
	// sink inside the function (directly or through a callee); the string
	// names the sink.
	ParamSink []string
	// Hits are taint→sink flows entirely local to the function: a source
	// in this body (or a tainted callee result) reaching a sink in this
	// body. The detflow analyzer reports them for the packages it visits.
	Hits []SinkHit
}

// TaintOf returns fn's taint summary, computing and caching it on first
// use. Standard-library and bodiless functions get table-driven behaviour:
// known nondeterministic sources return taint, everything else is treated
// as a pure passthrough (any tainted argument taints the results), which
// keeps flows like strconv.FormatInt(now, 10) visible. Cycles in the call
// graph are cut by returning an empty summary for the in-progress
// function — recursive flows are under-approximated, not diverged on.
func (f *Facts) TaintOf(fn *types.Func) *TaintSummary {
	if fn == nil {
		return &TaintSummary{}
	}
	pf := f.factsFor(fn)
	sum := (*FuncSummary)(nil)
	if pf != nil {
		sum = pf.Funcs[fn]
	}
	if pf == nil || sum == nil || sum.Decl == nil {
		return stdTaint(fn)
	}
	if ts, ok := pf.taint[fn]; ok {
		return ts
	}
	walk := f.loader.taintWalk
	if walk[fn] {
		return &TaintSummary{} // cycle: cut with the empty summary
	}
	walk[fn] = true
	defer delete(walk, fn)
	ts := computeTaint(f, pf, sum)
	pf.taint[fn] = ts
	return ts
}

// stdTaint models functions without a loadable body.
func stdTaint(fn *types.Func) *TaintSummary {
	if desc, ok := NondetSource(fn); ok {
		return &TaintSummary{Returns: &TaintOrigin{Desc: desc}}
	}
	sig, _ := fn.Type().(*types.Signature)
	n := 0
	if sig != nil {
		n = sig.Params().Len()
	}
	flow := make([]bool, n)
	for i := range flow {
		flow[i] = true // passthrough: tainted arguments taint the results
	}
	return &TaintSummary{ParamFlow: flow, ParamSink: make([]string, n)}
}

// ---- source and sink tables --------------------------------------------

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

// NondetSource reports whether fn is a nondeterministic source: every
// package-level function of crypto/rand, plus the time and math/rand
// functions listed above. It is the one source table behind detflow: the
// flow engine's taint origins, and the calls detflow bans outright in
// deterministic packages.
func NondetSource(fn *types.Func) (string, bool) {
	pkg := fn.Pkg()
	if pkg == nil {
		return "", false
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		return "", false // methods: only package-level sources are listed
	}
	switch pkg.Path() {
	case "time":
		if nondetTimeFuncs[fn.Name()] {
			return "wall clock time." + fn.Name(), true
		}
	case "math/rand", "math/rand/v2":
		if nondetRandFuncs[fn.Name()] {
			return "global rand." + fn.Name(), true
		}
	case "crypto/rand":
		return "crypto/rand." + fn.Name(), true
	}
	return "", false
}

// sinkCall reports whether fn is a determinism sink: feeding it a
// nondeterministic value forks fingerprints, stats, or snapshots (the
// detflow sink table).
func sinkCall(fn *types.Func) (string, bool) {
	pkg := fn.Pkg()
	if pkg == nil {
		return "", false
	}
	name := fn.Name()
	switch pkg.Path() {
	case "crypto/sha256", "crypto/sha1", "crypto/sha512", "crypto/md5":
		if strings.HasPrefix(name, "Sum") {
			return "hash/fingerprint input (" + pkg.Name() + "." + name + ")", true
		}
	case "hash/crc32", "hash/crc64", "hash/fnv", "hash/maphash":
		if name == "Checksum" || name == "Update" || name == "ChecksumIEEE" {
			return "hash/fingerprint input (" + pkg.Name() + "." + name + ")", true
		}
	case "encoding/gob":
		if name == "Encode" || name == "EncodeValue" {
			return "gob snapshot encoding", true
		}
	}
	if !strings.HasPrefix(pkg.Path(), "repro") {
		return "", false
	}
	if strings.Contains(strings.ToLower(name), "fingerprint") {
		return "fingerprint computation (" + funcName(fn) + ")", true
	}
	switch pkg.Path() {
	case "repro/internal/snapshot":
		if name == "Save" {
			return "snapshot capture (snapshot.Save)", true
		}
	case "repro/internal/stats":
		sig, _ := fn.Type().(*types.Signature)
		if sig != nil && sig.Params().Len() > 0 && ast.IsExported(name) {
			return "stats recording (" + funcName(fn) + ")", true
		}
	}
	return "", false
}

// orderSink reports whether a call named name is an order sink: an output
// writer or a seed/hash derivation, where map iteration order serializes
// or mixes the map in per-run random order. Only order taint counts there
// (printing a timestamp is fine). The match is by name, so interface
// methods and func values count too.
func orderSink(name string) (string, bool) {
	switch {
	case strings.HasPrefix(name, "Write"), strings.HasPrefix(name, "Fprint"),
		strings.HasPrefix(name, "Print"), name == "Encode", name == "Marshal":
		return "output (" + name + "); collect the rows and sort them first", true
	case strings.Contains(name, "Seed"), strings.HasPrefix(name, "Hash"),
		strings.HasPrefix(name, "Sum"):
		return "seed/hash derivation (" + name + "); iterate over sorted keys", true
	}
	return "", false
}

// calleeName is the syntactic name of a call's function: the identifier
// or the selector's field name.
func calleeName(call *ast.CallExpr) string {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		return f.Sel.Name
	}
	return ""
}

// IsStateStruct reports whether t (after pointer stripping) is a module
// checkpoint state struct: an exported named struct defined under the
// repro module whose name is "State" or ends in "State". Writes into such
// structs are snapshot sinks for detflow. Unexported *State types
// (in-memory bookkeeping that never meets a gob encoder) are deliberately
// excluded.
func IsStateStruct(t types.Type) bool {
	named := namedOf(t)
	if named == nil {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || !strings.HasPrefix(obj.Pkg().Path(), "repro") {
		return false
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return false
	}
	return ast.IsExported(obj.Name()) &&
		(obj.Name() == "State" || strings.HasSuffix(obj.Name(), "State"))
}

// isStatsType reports whether t belongs to the stats layer.
func isStatsType(t types.Type) bool {
	named := namedOf(t)
	return named != nil && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "repro/internal/stats"
}

func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// ---- the flow engine ---------------------------------------------------

// Taint masks are bitsets: bit 0 marks a hard nondeterministic source
// (clock, global rand, select arrival, addresses), bit 63 marks ORDER
// nondeterminism (map iteration), and bit i+1 marks parameter i. Running
// the engine once with all bits seeded yields both the intrinsic-return
// and the per-parameter flow facts.
//
// Order taint gets its own bit because it has sanitizers hard taint does
// not: storing into a map by key is order-insensitive (the copy idiom
// st.Counts[k] = v re-keys every element, so iteration order cannot reach
// the result), and passing a slice to package sort/slices re-determinizes
// it (the collect-then-sort idiom). A wall-clock value survives both; a
// map-order value survives neither.
const (
	nondetBit   uint64 = 1
	mapOrderBit uint64 = 1 << 63
	taintBits          = nondetBit | mapOrderBit
)

// maxTrackedParams caps the parameters tracked per function (bits 1..62).
const maxTrackedParams = 61

type taintFlow struct {
	facts *Facts
	pf    *PkgFacts
	fn    *types.Func
	decl  *ast.FuncDecl

	mask   map[types.Object]uint64
	origin map[types.Object]*TaintOrigin

	nparams   int
	retMask   uint64
	retOrigin *TaintOrigin

	// sinks enables sink recording (the single post-fixpoint pass).
	sinks     bool
	paramSink []string
	hits      []SinkHit

	selectDepth int // >0 inside a multi-case select: assignments gain bit 0
	selectPos   token.Pos
	changed     bool
}

// computeTaint runs the engine to fixpoint over one function body, then a
// final pass with sink recording on.
func computeTaint(facts *Facts, pf *PkgFacts, sum *FuncSummary) *TaintSummary {
	sig, _ := sum.Fn.Type().(*types.Signature)
	n := 0
	if sig != nil {
		n = sig.Params().Len()
	}
	if n > maxTrackedParams {
		n = maxTrackedParams
	}
	tf := &taintFlow{
		facts:     facts,
		pf:        pf,
		fn:        sum.Fn,
		decl:      sum.Decl,
		mask:      map[types.Object]uint64{},
		origin:    map[types.Object]*TaintOrigin{},
		nparams:   n,
		paramSink: make([]string, n),
	}
	for i := 0; i < n; i++ {
		tf.mask[sig.Params().At(i)] = 1 << uint(i+1)
	}
	for iter := 0; iter < 10; iter++ {
		tf.changed = false
		tf.stmt(sum.Decl.Body)
		if !tf.changed {
			break
		}
	}
	tf.sinks = true
	tf.stmt(sum.Decl.Body)

	ts := &TaintSummary{
		ParamFlow: make([]bool, n),
		ParamSink: tf.paramSink,
		Hits:      dedupeHits(tf.hits),
	}
	for i := 0; i < n; i++ {
		ts.ParamFlow[i] = tf.retMask&(1<<uint(i+1)) != 0
	}
	if tf.retMask&taintBits != 0 {
		ts.Returns = tf.retOrigin
		if ts.Returns == nil {
			ts.Returns = &TaintOrigin{Desc: "nondeterministic value", Order: tf.retMask&nondetBit == 0}
		}
	}
	return ts
}

func dedupeHits(hits []SinkHit) []SinkHit {
	seen := map[token.Pos]bool{}
	out := hits[:0]
	for _, h := range hits {
		if !seen[h.Pos] {
			seen[h.Pos] = true
			out = append(out, h)
		}
	}
	return out
}

// setObj merges mask bits into obj, recording the first nondet origin.
func (tf *taintFlow) setObj(obj types.Object, m uint64, o *TaintOrigin) {
	if obj == nil {
		return
	}
	if tf.selectDepth > 0 {
		m |= nondetBit
		if o == nil {
			o = &TaintOrigin{Pos: tf.selectPos, Desc: "select case arrival order"}
		}
	}
	if m&^tf.mask[obj] != 0 {
		tf.mask[obj] |= m
		tf.changed = true
	}
	if m&taintBits != 0 && o != nil && tf.origin[obj] == nil {
		tf.origin[obj] = o
	}
}

// clearOrder drops order-class taint from the root object of e — the
// sort-sanitizer backend. Clears are not counted as fixpoint changes; the
// statement-ordered walk applies them where they occur.
func (tf *taintFlow) clearOrder(e ast.Expr) {
	info := tf.pf.Pkg.Info
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			if obj := info.ObjectOf(x); obj != nil {
				tf.mask[obj] &^= mapOrderBit
			}
			return
		case *ast.SelectorExpr:
			if _, ok := info.Selections[x]; !ok {
				return
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return
		}
	}
}

// sinkValue routes a tainted value arriving at a sink: nondet taint
// becomes a hit, parameter taint becomes a ParamSink fact.
func (tf *taintFlow) sinkValue(pos token.Pos, sink string, m uint64, o *TaintOrigin) {
	if !tf.sinks || m == 0 {
		return
	}
	if m&taintBits != 0 {
		if o == nil {
			o = &TaintOrigin{Pos: pos, Desc: "nondeterministic value"}
		}
		tf.hits = append(tf.hits, SinkHit{Pos: pos, Sink: sink, Origin: o})
	}
	for i := 0; i < tf.nparams; i++ {
		if m&(1<<uint(i+1)) != 0 && tf.paramSink[i] == "" {
			tf.paramSink[i] = sink
		}
	}
}

// orderHit records order taint reaching an order sink. Order sinks are
// checked locally: parameter taint exports no fact for them.
func (tf *taintFlow) orderHit(pos token.Pos, sink string, m uint64, o *TaintOrigin) {
	if tf.sinks && m&mapOrderBit != 0 {
		tf.hits = append(tf.hits, SinkHit{Pos: pos, Sink: sink, Origin: o})
	}
}

// returnSlice is the third order sink: a slice leaving the function in
// map iteration order.
func (tf *taintFlow) returnSlice(pos token.Pos, t types.Type, m uint64, o *TaintOrigin) {
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Slice); ok {
		tf.orderHit(pos, "an unsorted slice returned by "+funcName(tf.fn)+"; sort it before returning", m, o)
	}
}

// exprTaint evaluates an expression's taint mask and best origin.
func (tf *taintFlow) exprTaint(e ast.Expr) (uint64, *TaintOrigin) {
	info := tf.pf.Pkg.Info
	switch e := e.(type) {
	case *ast.Ident:
		obj := info.ObjectOf(e)
		return tf.mask[obj], tf.origin[obj]
	case *ast.ParenExpr:
		return tf.exprTaint(e.X)
	case *ast.StarExpr:
		return tf.exprTaint(e.X)
	case *ast.TypeAssertExpr:
		return tf.exprTaint(e.X)
	case *ast.IndexExpr:
		m1, o1 := tf.exprTaint(e.X)
		m2, o2 := tf.exprTaint(e.Index)
		return m1 | m2, firstOrigin(o1, o2)
	case *ast.SliceExpr:
		return tf.exprTaint(e.X)
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok && sel != nil {
			return tf.exprTaint(e.X) // field or method value: base taint
		}
		return 0, nil // package-qualified identifier
	case *ast.UnaryExpr:
		if e.Op == token.ARROW {
			// Plain channel receive: the value is whatever was sent;
			// cross-goroutine flow is out of scope (select IS a source).
			return 0, nil
		}
		return tf.exprTaint(e.X)
	case *ast.BinaryExpr:
		m1, o1 := tf.exprTaint(e.X)
		m2, o2 := tf.exprTaint(e.Y)
		return m1 | m2, firstOrigin(o1, o2)
	case *ast.CompositeLit:
		var m uint64
		var o *TaintOrigin
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			em, eo := tf.exprTaint(el)
			m |= em
			o = firstOrigin(o, eo)
		}
		if tf.sinks && IsStateStruct(info.TypeOf(e)) {
			tf.sinkValue(e.Pos(), "snapshot state (composite literal)", m, o)
		}
		return m, o
	case *ast.CallExpr:
		return tf.callTaint(e)
	case *ast.FuncLit:
		return 0, nil
	}
	return 0, nil
}

func firstOrigin(a, b *TaintOrigin) *TaintOrigin {
	if a != nil {
		return a
	}
	return b
}

// callTaint models one call (or conversion): source table, callee summary
// propagation, sink table, and pointer→uintptr conversions.
func (tf *taintFlow) callTaint(call *ast.CallExpr) (uint64, *TaintOrigin) {
	info := tf.pf.Pkg.Info

	// Type conversions.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) != 1 {
			return 0, nil
		}
		m, o := tf.exprTaint(call.Args[0])
		if isUintptr(tv.Type) && isPointerish(info.TypeOf(call.Args[0])) {
			o = &TaintOrigin{Pos: call.Pos(),
				Desc: "pointer-to-uintptr conversion (address-dependent value) at " + relPosition(tf.pf.Pkg.Fset.Position(call.Pos()))}
			return m | nondetBit, o
		}
		return m, o
	}

	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "append", "len", "cap", "min", "max":
				var m uint64
				var o *TaintOrigin
				for _, a := range call.Args {
					am, ao := tf.exprTaint(a)
					m |= am
					o = firstOrigin(o, ao)
				}
				return m, o
			}
			return 0, nil
		}
	}

	// Argument and receiver masks (evaluated once, reused below).
	argMask := make([]uint64, len(call.Args))
	argOrigin := make([]*TaintOrigin, len(call.Args))
	for i, a := range call.Args {
		argMask[i], argOrigin[i] = tf.exprTaint(a)
	}
	var recvMask uint64
	var recvOrigin *TaintOrigin
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s, ok := info.Selections[sel]; ok && s != nil {
			recvMask, recvOrigin = tf.exprTaint(sel.X)
		}
	}

	if desc, ok := orderSink(calleeName(call)); ok {
		var m uint64
		var o *TaintOrigin
		for i := range argMask {
			m |= argMask[i]
			o = firstOrigin(o, argOrigin[i])
		}
		tf.orderHit(call.Pos(), desc, m, o)
	}

	callee := CalleeFunc(info, call)
	if callee == nil {
		// Func-value call: conservative passthrough of args + the value.
		m, o := tf.exprTaint(call.Fun)
		for i := range argMask {
			m |= argMask[i]
			o = firstOrigin(o, argOrigin[i])
		}
		return m, o
	}

	if desc, ok := NondetSource(callee); ok {
		return nondetBit, &TaintOrigin{Pos: call.Pos(),
			Desc: desc + " at " + relPosition(tf.pf.Pkg.Fset.Position(call.Pos()))}
	}

	sum := tf.facts.TaintOf(callee)

	// Sink checks: the curated call table, then the callee's param-sink
	// facts (a sink buried one or more calls deep).
	if tf.sinks {
		if desc, ok := sinkCall(callee); ok {
			for i := range argMask {
				tf.sinkValue(call.Args[i].Pos(), desc, argMask[i], argOrigin[i])
			}
			tf.sinkValue(call.Pos(), desc, recvMask, recvOrigin)
		}
		for i := range argMask {
			idx := paramIndex(i, len(sum.ParamSink))
			if idx >= 0 && sum.ParamSink[idx] != "" {
				tf.sinkValue(call.Args[i].Pos(),
					sum.ParamSink[idx]+" via "+funcName(callee), argMask[i], argOrigin[i])
			}
		}
	}

	// Result taint: intrinsic callee taint, flowing parameters, receiver.
	var m uint64
	var o *TaintOrigin
	if sum.Returns != nil {
		if sum.Returns.Order {
			m |= mapOrderBit
		} else {
			m |= nondetBit
		}
		o = &TaintOrigin{Pos: call.Pos(), Desc: sum.Returns.Desc + " via " + funcName(callee), Order: sum.Returns.Order}
	}
	for i := range argMask {
		idx := paramIndex(i, len(sum.ParamFlow))
		if idx >= 0 && sum.ParamFlow[idx] {
			m |= argMask[i]
			o = firstOrigin(o, argOrigin[i])
		}
	}
	m |= recvMask
	o = firstOrigin(o, recvOrigin)
	return m, o
}

// paramIndex maps argument position i onto a summary slot, folding
// variadic overflow onto the last parameter.
func paramIndex(i, n int) int {
	if n == 0 {
		return -1
	}
	if i >= n {
		return n - 1
	}
	return i
}

// isSortCall recognizes calls into package sort or slices — the
// sanctioned determinizers for collect-then-sort.
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

func isUintptr(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Uintptr
}

func isPointerish(t types.Type) bool {
	if t == nil {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Pointer:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

// assign routes a tainted value into an lvalue: identifiers take the mask
// directly, field/index/deref writes taint the root object and trip the
// state/stats sink checks.
func (tf *taintFlow) assign(lhs ast.Expr, m uint64, o *TaintOrigin) {
	info := tf.pf.Pkg.Info
	switch l := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if l.Name == "_" {
			return
		}
		tf.setObj(info.ObjectOf(l), m, o)
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[l]; ok && sel != nil {
			base := info.TypeOf(l.X)
			if tf.sinks {
				if IsStateStruct(base) {
					tf.sinkValue(l.Pos(), "snapshot state field "+fieldPath(base, l.Sel.Name), m, o)
				} else if isStatsType(base) {
					tf.sinkValue(l.Pos(), "stats field "+fieldPath(base, l.Sel.Name), m, o)
				}
			}
		}
		tf.assignRoot(l.X, m, o)
	case *ast.IndexExpr:
		if t := info.TypeOf(l.X); t != nil {
			if _, isMap := t.Underlying().(*types.Map); isMap {
				// Keyed insertion into a map re-keys the element: iteration
				// order cannot reach the result, so order taint stops here.
				m &^= mapOrderBit
			}
		}
		tf.assignRoot(l.X, m, o)
	case *ast.StarExpr:
		tf.assignRoot(l.X, m, o)
	}
}

// assignRoot taints the base object of a compound lvalue (x.f = v taints
// x), so later reads of the container observe the taint.
func (tf *taintFlow) assignRoot(e ast.Expr, m uint64, o *TaintOrigin) {
	info := tf.pf.Pkg.Info
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			tf.setObj(info.ObjectOf(x), m, o)
			return
		case *ast.SelectorExpr:
			if _, ok := info.Selections[x]; !ok {
				return // package-qualified: don't track globals
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return
		}
	}
}

func fieldPath(base types.Type, field string) string {
	if n := namedOf(base); n != nil {
		return n.Obj().Name() + "." + field
	}
	return field
}

// stmt walks one statement, updating the flow state in source order.
func (tf *taintFlow) stmt(s ast.Stmt) {
	info := tf.pf.Pkg.Info
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, st := range s.List {
			tf.stmt(st)
		}
	case *ast.ExprStmt:
		tf.exprTaint(s.X)
		if call, ok := s.X.(*ast.CallExpr); ok && isSortCall(info, call) {
			// Collect-then-sort: sorting re-determinizes order taint.
			for _, a := range call.Args {
				tf.clearOrder(a)
			}
		}
	case *ast.AssignStmt:
		if len(s.Lhs) > 1 && len(s.Rhs) == 1 {
			m, o := tf.exprTaint(s.Rhs[0])
			for _, l := range s.Lhs {
				tf.assign(l, m, o)
			}
			return
		}
		for i, l := range s.Lhs {
			if i < len(s.Rhs) {
				m, o := tf.exprTaint(s.Rhs[i])
				if s.Tok != token.ASSIGN && s.Tok != token.DEFINE {
					// x += y keeps x's taint and adds y's.
					om, oo := tf.exprTaint(l)
					m |= om
					o = firstOrigin(o, oo)
				}
				tf.assign(l, m, o)
			}
		}
	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, name := range vs.Names {
				if i < len(vs.Values) {
					m, o := tf.exprTaint(vs.Values[i])
					tf.setObj(info.ObjectOf(name), m, o)
				} else if len(vs.Values) == 1 && len(vs.Names) > 1 {
					m, o := tf.exprTaint(vs.Values[0])
					tf.setObj(info.ObjectOf(name), m, o)
				}
			}
		}
	case *ast.IncDecStmt:
		// x++ preserves x's taint; nothing flows.
	case *ast.RangeStmt:
		m, o := tf.exprTaint(s.X)
		if t := info.TypeOf(s.X); t != nil {
			if _, isMap := t.Underlying().(*types.Map); isMap {
				m |= mapOrderBit
				o = &TaintOrigin{Pos: s.Pos(), Order: true,
					Desc: "map iteration order at " + relPosition(tf.pf.Pkg.Fset.Position(s.Pos()))}
			}
		}
		if s.Key != nil {
			tf.assign(s.Key, m, o)
		}
		if s.Value != nil {
			tf.assign(s.Value, m, o)
		}
		tf.stmt(s.Body)
	case *ast.IfStmt:
		tf.stmt(s.Init)
		tf.exprTaint(s.Cond)
		tf.stmt(s.Body)
		tf.stmt(s.Else)
	case *ast.ForStmt:
		tf.stmt(s.Init)
		if s.Cond != nil {
			tf.exprTaint(s.Cond)
		}
		tf.stmt(s.Post)
		tf.stmt(s.Body)
	case *ast.SwitchStmt:
		tf.stmt(s.Init)
		if s.Tag != nil {
			tf.exprTaint(s.Tag)
		}
		tf.stmt(s.Body)
	case *ast.TypeSwitchStmt:
		tf.stmt(s.Init)
		tf.stmt(s.Assign)
		tf.stmt(s.Body)
	case *ast.CaseClause:
		for _, e := range s.List {
			tf.exprTaint(e)
		}
		for _, st := range s.Body {
			tf.stmt(st)
		}
	case *ast.SelectStmt:
		multi := len(s.Body.List) > 1
		if multi {
			tf.selectDepth++
			if tf.selectPos == token.NoPos {
				tf.selectPos = s.Pos()
			}
		}
		tf.stmt(s.Body)
		if multi {
			tf.selectDepth--
			if tf.selectDepth == 0 {
				tf.selectPos = token.NoPos
			}
		}
	case *ast.CommClause:
		tf.stmt(s.Comm)
		for _, st := range s.Body {
			tf.stmt(st)
		}
	case *ast.SendStmt:
		tf.exprTaint(s.Value)
	case *ast.ReturnStmt:
		sig, _ := tf.fn.Type().(*types.Signature)
		var m uint64
		var o *TaintOrigin
		if len(s.Results) == 0 && sig != nil {
			for i := 0; i < sig.Results().Len(); i++ {
				rv := sig.Results().At(i)
				m |= tf.mask[rv]
				o = firstOrigin(o, tf.origin[rv])
				tf.returnSlice(s.Pos(), rv.Type(), tf.mask[rv], tf.origin[rv])
			}
		}
		for _, r := range s.Results {
			rm, ro := tf.exprTaint(r)
			m |= rm
			o = firstOrigin(o, ro)
			tf.returnSlice(r.Pos(), info.TypeOf(r), rm, ro)
		}
		if tf.sinks && tf.fn.Name() == "State" && m&taintBits != 0 {
			tf.sinkValue(s.Pos(), "snapshot State() result", m, o)
		}
		if m&^tf.retMask != 0 {
			tf.retMask |= m
			tf.changed = true
		}
		if m&taintBits != 0 && tf.retOrigin == nil {
			tf.retOrigin = o
			if tf.retOrigin == nil {
				tf.retOrigin = &TaintOrigin{Pos: s.Pos(), Desc: "nondeterministic value"}
			}
		}
	case *ast.DeferStmt:
		tf.callTaint(s.Call)
	case *ast.GoStmt:
		tf.callTaint(s.Call)
	case *ast.LabeledStmt:
		tf.stmt(s.Stmt)
	case *ast.BranchStmt, *ast.EmptyStmt:
	}
}

// TaintHits returns the local taint→sink flows of every function declared
// in the package at path, in source order — the detflow analyzer's entry
// point. The summaries (and their hit lists) are computed on first use and
// cached on the package's facts.
func (f *Facts) TaintHits(path string) (map[*types.Func][]SinkHit, error) {
	pf, err := f.PackageFacts(path)
	if err != nil {
		return nil, err
	}
	if pf == nil {
		return nil, nil
	}
	out := map[*types.Func][]SinkHit{}
	for fn := range pf.Funcs {
		ts := f.TaintOf(fn)
		if len(ts.Hits) > 0 {
			out[fn] = ts.Hits
		}
	}
	return out, nil
}

// TaintDesc renders a hit for diagnostics.
func TaintDesc(h SinkHit) string {
	if h.Origin == nil {
		return fmt.Sprintf("nondeterministic value flows into %s", h.Sink)
	}
	return fmt.Sprintf("nondeterministic value (%s) flows into %s", h.Origin.Desc, h.Sink)
}
