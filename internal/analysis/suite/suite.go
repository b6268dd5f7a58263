// Package suite registers the repository's analyzers in one place for the
// cmd/mehpt-lint multichecker and the repo-wide lint test.
package suite

import (
	"repro/internal/analysis"
	"repro/internal/analysis/addrspace"
	"repro/internal/analysis/detflow"
	"repro/internal/analysis/errwrap"
	"repro/internal/analysis/staleallow"
)

// All returns every analyzer in the mehpt-lint suite. staleallow is built
// against the full name list so its unknown-analyzer check recognizes
// every rule that can legitimately appear in a //mehpt:allow directive.
func All() []*analysis.Analyzer {
	base := []*analysis.Analyzer{
		addrspace.Analyzer,
		detflow.Analyzer,
		errwrap.Analyzer,
	}
	names := make([]string, 0, len(base))
	for _, a := range base {
		names = append(names, a.Name)
	}
	return append(base, staleallow.New(names))
}
