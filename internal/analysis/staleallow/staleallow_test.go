package staleallow_test

import (
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/detflow"
	"repro/internal/analysis/errwrap"
	"repro/internal/analysis/staleallow"
)

func TestStaleallow(t *testing.T) {
	analyzers := []*analysis.Analyzer{
		detflow.Analyzer,
		errwrap.Analyzer,
		staleallow.New([]string{"detflow", "errwrap"}),
	}
	analysistest.RunSuite(t, analyzers, "testdata", "repro/internal/satest")
}

// TestRanGate checks the subset-run guarantee: when detflow and errwrap
// do not run, their waivers are never condemned as stale — the audit only
// judges waivers for analyzers that executed — while the unknown-name
// checks still fire.
func TestRanGate(t *testing.T) {
	loader := analysis.NewLoader(analysis.TestdataResolver("testdata/src"))
	pkg, err := loader.Load("repro/internal/satest")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	sa := staleallow.New([]string{"detflow", "errwrap"})
	only := []*analysis.Analyzer{sa}
	if _, err := analysis.RunAnalyzers(pkg, only); err != nil {
		t.Fatalf("running staleallow: %v", err)
	}
	fds, err := analysis.RunFinishers(loader, []*analysis.Package{pkg}, only, nil)
	if err != nil {
		t.Fatalf("finish: %v", err)
	}
	unknown := 0
	for _, d := range fds {
		if strings.Contains(d.Message, "stale //mehpt:allow") {
			t.Errorf("waiver condemned although its analyzer never ran: %s", d.Message)
		}
		if strings.Contains(d.Message, "unknown analyzer") {
			unknown++
		}
	}
	if unknown != 1 {
		t.Errorf("got %d unknown-analyzer findings in the subset run, want 1", unknown)
	}
}
