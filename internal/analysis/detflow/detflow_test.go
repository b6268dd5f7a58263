package detflow_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/detflow"
)

func TestDetflow(t *testing.T) {
	analysistest.Run(t, detflow.Analyzer, "testdata", "repro/internal/dftest")
}

// TestDetrand checks ban mode: every global-rand, wall-clock, and
// crypto/rand use in a deterministic package is a finding, and the same
// constructs in an I/O shell are not.
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

// TestMaporder checks the three order sinks: map iteration order reaching
// an output writer, a seed derivation, or a returned unsorted slice.
func TestMaporder(t *testing.T) {
	analysistest.Run(t, detflow.Analyzer, "testdata", "repro/internal/mtest")
}
