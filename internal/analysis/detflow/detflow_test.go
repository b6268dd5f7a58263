package detflow_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/detflow"
)

// TestDetflow checks the edges of both rules: collect-then-sort variants
// that are and are not the idiom, map ranges in function literals, and
// the select and pointer-to-uintptr bans.
func TestDetflow(t *testing.T) {
	analysistest.Run(t, detflow.Analyzer, "testdata", "repro/internal/dftest")
}

// TestDetrand checks ban mode: every global-rand, wall-clock, crypto/rand,
// multi-case select and pointer-to-uintptr use in a deterministic package
// is a finding, and the same constructs in an I/O shell are not; map
// ranges are findings in both.
func TestDetrand(t *testing.T) {
	analysistest.Run(t, detflow.Analyzer, "testdata",
		"repro/internal/simx", // deterministic package: flagged + allowed cases
		"repro/cmdx",          // I/O shell: same constructs, zero findings
	)
}

func TestDeterministicSet(t *testing.T) {
	for path, want := range map[string]bool{
		"repro/internal/sim":              true,
		"repro/internal/mehpt":            true,
		"repro/internal/workload":         true,
		"repro/internal/analysis":         false,
		"repro/internal/analysis/detflow": false,
		"repro/cmd/mehpt-experiments":     false,
		"repro/examples/quickstart":       false,
	} {
		if got := detflow.Deterministic(path); got != want {
			t.Errorf("Deterministic(%q) = %v, want %v", path, got, want)
		}
	}
}

// TestMaporder checks the map-range rule: collect-then-sort is clean, any
// other map range (unsorted collect, output, seed folding, a callback per
// key) is flagged unless waived.
func TestMaporder(t *testing.T) {
	analysistest.Run(t, detflow.Analyzer, "testdata", "repro/internal/mtest")
}
