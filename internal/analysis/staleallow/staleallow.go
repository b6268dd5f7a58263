// Package staleallow audits the waiver hygiene the rest of the suite
// depends on. A //mehpt:allow directive is a standing exception; once the
// code it excused changes, the directive outlives its finding and silently
// pre-forgives the next regression on that line. staleallow errors on any
// allow entry that suppressed zero diagnostics during the run, and flags
// misspelled annotation heads and waivers naming unknown analyzers — the
// typos that otherwise turn into directives that never match anything.
//
// The stale audit runs in the whole-run Finish phase, after every package
// has been analyzed. Audited entries are gated on the analyzers that actually ran
// (a subset run with -analyzers never condemns waivers for rules it
// skipped), and entries naming staleallow itself are exempt: Finish
// diagnostics are deliberately unsuppressable, so such a waiver could
// never be consumed.
package staleallow

import (
	"strings"

	"repro/internal/analysis"
)

// New builds the staleallow analyzer for a suite whose analyzers carry the
// given names. The names gate the unknown-analyzer check; the Ran list of
// the concrete run gates the staleness check.
func New(known []string) *analysis.Analyzer {
	c := &checker{known: map[string]bool{}}
	for _, n := range known {
		c.known[n] = true
	}
	c.known["staleallow"] = true
	c.known["directive"] = true // the pseudo-analyzer for malformed-directive diags
	return &analysis.Analyzer{
		Name: "staleallow",
		Doc: "error on //mehpt:allow directives that suppressed nothing this " +
			"run, and on unknown annotation or analyzer names",
		Run:    c.run,
		Finish: c.finish,
	}
}

type checker struct {
	known map[string]bool
}

// run validates annotation heads: every //mehpt: comment must open with a
// known annotation name.
func (c *checker) run(pass *analysis.Pass) error {
	knownHeads := analysis.KnownAnnotations()
	isHead := map[string]bool{}
	for _, h := range knownHeads {
		isHead[h] = true
	}
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, cm := range cg.List {
				rest, ok := strings.CutPrefix(cm.Text, "//mehpt:")
				if !ok {
					continue
				}
				head := rest
				if i := strings.IndexAny(head, " \t"); i >= 0 {
					head = head[:i]
				}
				base, _, _ := strings.Cut(head, ":")
				if !isHead[base] {
					pass.Reportf(cm.Pos(),
						"unknown //mehpt: annotation %q; known annotations: %s (rule staleallow)",
						base, strings.Join(knownHeads, ", "))
				}
			}
		}
	}
	return nil
}

// finish is the whole-run waiver audit.
func (c *checker) finish(fp *analysis.FinishPass) error {
	ran := map[string]bool{}
	for _, n := range fp.Ran {
		ran[n] = true
	}
	for _, pkg := range fp.Packages {
		set, _ := fp.Loader.AllowsFor(pkg)
		for _, e := range set.Entries() {
			switch {
			case !c.known[e.Analyzer]:
				fp.Reportf(e.Pos,
					"//mehpt:allow waives unknown analyzer %q (try mehpt-lint -list); "+
						"a misspelled waiver suppresses nothing (rule staleallow)", e.Analyzer)
			case e.Analyzer == "staleallow" || !ran[e.Analyzer]:
				// Not judgeable this run.
			case !e.Used():
				fp.Reportf(e.Pos,
					"stale //mehpt:allow: the %s waiver suppressed no diagnostic this run; "+
						"delete the directive (rule staleallow)", e.Analyzer)
			}
		}
	}
	return nil
}
