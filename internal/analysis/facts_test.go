package analysis

import "testing"

// TestPackageFactsCached checks the round trip through the loader cache:
// repeated queries return the same computed facts, including for
// dependency packages pulled in transitively.
func TestPackageFactsCached(t *testing.T) {
	loader := NewLoader(TestdataResolver("testdata/src"))
	if _, err := loader.Load("repro/internal/factsa"); err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	facts := &Facts{loader: loader}

	a1, err := facts.PackageFacts("repro/internal/factsa")
	if err != nil {
		t.Fatalf("PackageFacts(factsa): %v", err)
	}
	a2, err := facts.PackageFacts("repro/internal/factsa")
	if err != nil {
		t.Fatalf("PackageFacts(factsa) second load: %v", err)
	}
	if a1 != a2 {
		t.Errorf("PackageFacts recomputed instead of returning the cached value")
	}

	b, err := facts.PackageFacts("repro/internal/factsb")
	if err != nil {
		t.Fatalf("PackageFacts(factsb): %v", err)
	}
	var grow *FuncSummary
	for fn, sum := range b.Funcs {
		if fn.Name() == "Grow" {
			grow = sum
		}
	}
	if grow == nil {
		t.Fatalf("factsb.Grow has no summary")
	}
	if grow.Decl == nil || grow.Decl.Name.Name != "Grow" {
		t.Errorf("factsb.Grow summary does not carry its declaration")
	}
}
