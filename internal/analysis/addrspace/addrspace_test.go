package addrspace_test

import (
	"testing"

	"repro/internal/analysis/addrspace"
	"repro/internal/analysis/analysistest"
)

func TestAddrspace(t *testing.T) {
	analysistest.Run(t, addrspace.Analyzer, "testdata",
		"repro/internal/addr",  // the unit-defining package itself: clean
		"repro/internal/atest", // mixing, laundering, and waived cases
	)
}
