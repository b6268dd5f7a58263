package analysis

import (
	"go/types"
	"strings"
	"testing"
)

// loadTaintPkg loads the tainta fixture and returns the package plus a
// Facts view over the shared loader cache.
func loadTaintPkg(t *testing.T) (*Package, *Facts) {
	t.Helper()
	loader := NewLoader(TestdataResolver("testdata/src"))
	pkg, err := loader.Load("repro/internal/tainta")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	return pkg, &Facts{loader: loader}
}

func lookupFunc(t *testing.T, pkg *Package, name string) *types.Func {
	t.Helper()
	obj := pkg.Types.Scope().Lookup(name)
	fn, ok := obj.(*types.Func)
	if !ok {
		t.Fatalf("%s: not a function (%v)", name, obj)
	}
	return fn
}

// TestCrossPackageTaintRoundTrip checks that taint summaries survive the
// package boundary: analyzing tainta
// computes taintb's summaries on demand, the source's Returns fact and
// the wrapper's ParamSink fact both export, and the clean path stays
// clean.
func TestCrossPackageTaintRoundTrip(t *testing.T) {
	pkg, facts := loadTaintPkg(t)

	// Source taint rides Stamp's Returns fact through Mix's passthrough.
	from := facts.TaintOf(lookupFunc(t, pkg, "FromClock"))
	if from.Returns == nil {
		t.Fatalf("FromClock: wall-clock taint did not cross the package boundary")
	}
	if !strings.Contains(from.Returns.Desc, "time.Now") {
		t.Errorf("FromClock origin %q does not name the source", from.Returns.Desc)
	}
	if !strings.Contains(from.Returns.Desc, "Stamp") {
		t.Errorf("FromClock origin %q does not name the cross-package carrier", from.Returns.Desc)
	}

	// A direct sink call in tainta anchors the hit locally.
	hit := facts.TaintOf(lookupFunc(t, pkg, "Hit"))
	if len(hit.Hits) != 1 {
		t.Fatalf("Hit: got %d sink hits, want 1", len(hit.Hits))
	}
	if !strings.Contains(hit.Hits[0].Sink, "fingerprint") {
		t.Errorf("Hit sink %q is not the fingerprint sink", hit.Hits[0].Sink)
	}
	if pos := pkg.Fset.Position(hit.Hits[0].Pos); !strings.Contains(pos.Filename, "tainta") {
		t.Errorf("hit anchored at %s, want a position inside tainta", pos)
	}

	// A sink one call deep in taintb exports as a ParamSink fact.
	deep := facts.TaintOf(lookupFunc(t, pkg, "Deep"))
	if len(deep.Hits) != 1 {
		t.Fatalf("Deep: got %d sink hits through taintb.Forward, want 1", len(deep.Hits))
	}
	if !strings.Contains(deep.Hits[0].Sink, "via") {
		t.Errorf("Deep sink %q does not mention the carrying callee", deep.Hits[0].Sink)
	}

	// Constant inputs through the same callees stay clean.
	if clean := facts.TaintOf(lookupFunc(t, pkg, "CleanPath")); clean.Returns != nil {
		t.Errorf("CleanPath spuriously tainted: %s", clean.Returns.Desc)
	}
}

// TestTaintSummariesCached checks the export side directly: taintb's
// summaries are computed once, cached on its PkgFacts, and carry the
// expected per-function facts.
func TestTaintSummariesCached(t *testing.T) {
	_, facts := loadTaintPkg(t)

	pf, err := facts.PackageFacts("repro/internal/taintb")
	if err != nil {
		t.Fatalf("PackageFacts(taintb): %v", err)
	}
	byName := map[string]*types.Func{}
	for fn := range pf.Funcs {
		byName[fn.Name()] = fn
	}

	stamp := facts.TaintOf(byName["Stamp"])
	if stamp.Returns == nil || !strings.Contains(stamp.Returns.Desc, "time.Now") {
		t.Fatalf("Stamp summary %+v does not record the wall-clock source", stamp)
	}
	if again := facts.TaintOf(byName["Stamp"]); again != stamp {
		t.Errorf("Stamp summary recomputed instead of returning the cached value")
	}

	mix := facts.TaintOf(byName["Mix"])
	if len(mix.ParamFlow) != 2 || !mix.ParamFlow[0] || !mix.ParamFlow[1] {
		t.Errorf("Mix ParamFlow = %v, want both parameters flowing to the result", mix.ParamFlow)
	}
	if mix.Returns != nil {
		t.Errorf("Mix has no source of its own, but Returns = %v", mix.Returns)
	}

	fwd := facts.TaintOf(byName["Forward"])
	if len(fwd.ParamSink) != 1 || fwd.ParamSink[0] == "" {
		t.Errorf("Forward ParamSink = %v, want the fingerprint sink exported for param 0", fwd.ParamSink)
	}
}
