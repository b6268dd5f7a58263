package analysis

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// The suppression directive grammar is
//
//	//mehpt:allow <analyzer>[,<analyzer>...] -- <reason>
//	//mehpt:allow:file <analyzer>[,<analyzer>...] -- <reason>
//	//mehpt:allow:package <analyzer>[,<analyzer>...] -- <reason>
//
// The unscoped (line-scope) form is written either on the flagged line
// itself (trailing comment), on the line immediately above it, or on the
// line above the statement the flagged expression belongs to — a directive
// above a multi-line call suppresses findings on the call's continuation
// lines too. The :file form, placed anywhere in a file, waives the named
// analyzers for that whole file; the :package form waives them for every
// file of the package. The reason is mandatory at every scope: an allow
// without a recorded justification is itself a diagnostic. The analyzer
// list names the rules being waived (e.g. "detflow" for the -progress
// wall-clock timer in internal/experiments).
//
// Every (directive, analyzer) pair is accounted for: the staleallow
// analyzer audits the run afterwards and flags any pair that suppressed
// zero diagnostics, so waivers cannot outlive the finding they excuse.
const directivePrefix = "//mehpt:allow"

// AllowEntry is one (directive, analyzer) pair: a single //mehpt:allow
// comment naming two analyzers produces two entries. Entries record how
// often they suppressed a diagnostic, which is what the staleallow audit
// keys off.
type AllowEntry struct {
	Pos      token.Pos // position of the directive comment
	Scope    string    // "line", "file", or "package"
	Analyzer string    // the analyzer this entry waives
	used     int       // diagnostics suppressed
}

// Used reports whether the entry suppressed at least one diagnostic
// during the run.
func (e *AllowEntry) Used() bool { return e.used > 0 }

// AllowSet records which analyzers have been waived, per line, per file,
// and package-wide. Lookups mark the matching entry used.
type AllowSet struct {
	line    map[allowKey]*AllowEntry
	file    map[fileKey]*AllowEntry
	pkg     map[string]*AllowEntry
	entries []*AllowEntry
}

type allowKey struct {
	file     string
	line     int
	analyzer string
}

type fileKey struct {
	file     string
	analyzer string
}

// CollectAllows scans the files' comments for //mehpt:allow directives.
// Malformed directives (an unknown scope suffix, no analyzer list, or a
// missing "-- reason") are returned as diagnostics under the
// pseudo-analyzer name "directive".
func CollectAllows(fset *token.FileSet, files []*ast.File) (*AllowSet, []Diagnostic) {
	allows := &AllowSet{
		line: map[allowKey]*AllowEntry{},
		file: map[fileKey]*AllowEntry{},
		pkg:  map[string]*AllowEntry{},
	}
	var diags []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, directivePrefix) {
					continue
				}
				rest := c.Text[len(directivePrefix):]
				scope := "line"
				if s, r, ok := cutScope(rest); ok {
					scope, rest = s, r
				}
				names, reason, ok := splitDirective(rest)
				if scope == "" || !ok {
					diags = append(diags, Diagnostic{
						Pos:      c.Pos(),
						Analyzer: "directive",
						Message:  `malformed //mehpt:allow directive: want "//mehpt:allow[:file|:package] <analyzer>[,<analyzer>] -- <reason>"`,
					})
					continue
				}
				_ = reason // the reason is for humans; presence is all we check
				pos := fset.Position(c.Pos())
				for _, n := range names {
					e := &AllowEntry{Pos: c.Pos(), Scope: scope, Analyzer: n}
					allows.entries = append(allows.entries, e)
					switch scope {
					case "line":
						allows.line[allowKey{pos.Filename, pos.Line, n}] = e
					case "file":
						allows.file[fileKey{pos.Filename, n}] = e
					case "package":
						allows.pkg[n] = e
					}
				}
			}
		}
	}
	return allows, diags
}

// Entries returns every (directive, analyzer) pair collected from the
// package, in source order. The staleallow audit walks them after the run.
func (a *AllowSet) Entries() []*AllowEntry {
	es := append([]*AllowEntry(nil), a.entries...)
	sort.SliceStable(es, func(i, j int) bool { return es[i].Pos < es[j].Pos })
	return es
}

// cutScope strips a ":file" / ":package" scope suffix off the directive
// head. An unknown scope comes back as "" so the caller reports it.
func cutScope(rest string) (scope, tail string, ok bool) {
	if !strings.HasPrefix(rest, ":") {
		return "", rest, false
	}
	head, tail, _ := strings.Cut(rest[1:], " ")
	switch head {
	case "file", "package":
		return head, " " + tail, true
	}
	return "", rest, true
}

// splitDirective parses ` detflow,errwrap -- reason` into its parts.
func splitDirective(rest string) (names []string, reason string, ok bool) {
	if rest == "" || (rest[0] != ' ' && rest[0] != '\t') {
		return nil, "", false
	}
	list, reason, found := strings.Cut(rest, "--")
	if !found {
		return nil, "", false
	}
	reason = strings.TrimSpace(reason)
	if reason == "" {
		return nil, "", false
	}
	for _, n := range strings.Split(list, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			return nil, "", false
		}
		names = append(names, n)
	}
	return names, reason, true
}

// Allows reports whether a diagnostic by analyzer at pos is waived: the
// package or file carries a scoped directive, or a line directive sits on
// the same line or the line above. stmtLine, when nonzero, is the starting
// line of the statement enclosing pos; a directive on or above that line
// also matches, so findings on the continuation lines of a multi-line
// statement honour a directive written above the statement. A match is
// recorded on the winning entry for the staleallow audit.
func (a *AllowSet) Allows(fset *token.FileSet, pos token.Pos, stmtLine int, analyzer string) bool {
	if e := a.pkg[analyzer]; e != nil {
		e.used++
		return true
	}
	p := fset.Position(pos)
	if e := a.file[fileKey{p.Filename, analyzer}]; e != nil {
		e.used++
		return true
	}
	lines := []int{p.Line, p.Line - 1}
	if stmtLine != 0 && stmtLine != p.Line {
		lines = append(lines, stmtLine, stmtLine-1)
	}
	for _, ln := range lines {
		if e := a.line[allowKey{p.Filename, ln, analyzer}]; e != nil {
			e.used++
			return true
		}
	}
	return false
}

// StmtStartLine returns the starting line of the innermost statement in
// files that encloses pos, or 0 if pos is not inside any statement. It is
// the hook that lets line-scope allow directives cover multi-line
// statements.
func StmtStartLine(fset *token.FileSet, files []*ast.File, pos token.Pos) int {
	for _, f := range files {
		if pos < f.Pos() || pos >= f.End() {
			continue
		}
		line := 0
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil || pos < n.Pos() || pos >= n.End() {
				return n == nil
			}
			if _, ok := n.(ast.Stmt); ok {
				line = fset.Position(n.Pos()).Line
			}
			return true
		})
		return line
	}
	return 0
}
