package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Annotation grammar (DESIGN.md § "Mechanically enforced invariants").
// Annotations are declarations of intent the analyzers check, written as
// //mehpt: comments on the declaration they describe:
//
//	//mehpt:transient -- <why>  on a struct field of a type with a
//	                            State()/Restore pair: the field is
//	                            deliberately not serialized — it is
//	                            re-derived or re-attached on restore
//	                            (config, allocator handles, hash mixers,
//	                            repositioned RNGs). The reason clause is
//	                            mandatory: statecover accepts the field as
//	                            covered only with a recorded justification.
const transientPrefix = "//mehpt:transient"

// KnownAnnotations lists every valid //mehpt: comment head, for the
// staleallow analyzer's unknown-annotation check. allow carries optional
// :file/:package scope suffixes, validated separately by CollectAllows.
func KnownAnnotations() []string {
	return []string{"allow", "transient"}
}

// Annotations is the per-package annotation table.
type Annotations struct {
	// Transient marks struct fields deliberately excluded from their
	// type's State() capture (statecover).
	Transient map[*types.Var]bool

	// Malformed annotations (a transient with no reason clause) surface as "directive" diagnostics on the annotated package.
	Malformed []Diagnostic
}

// CollectAnnotations builds the annotation table for one package.
func CollectAnnotations(pkg *Package) *Annotations {
	an := &Annotations{Transient: map[*types.Var]bool{}}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if st, ok := n.(*ast.StructType); ok {
				an.collectFields(pkg, st.Fields)
			}
			return true
		})
	}
	return an
}

// collectFields reads transient annotations off a struct's field list.
func (an *Annotations) collectFields(pkg *Package, fields *ast.FieldList) {
	for _, field := range fields.List {
		comments := append(commentsOf(field.Doc), commentsOf(field.Comment)...)
		for _, c := range comments {
			if !strings.HasPrefix(c.Text, transientPrefix) {
				continue
			}
			if !transientWellFormed(c.Text) {
				an.malformed(c, `want "//mehpt:transient -- <how the field is reconstituted on restore>"`)
				continue
			}
			for _, name := range field.Names {
				if v, ok := pkg.Info.Defs[name].(*types.Var); ok {
					an.Transient[v] = true
				}
			}
		}
	}
}

func (an *Annotations) malformed(c *ast.Comment, want string) {
	an.Malformed = append(an.Malformed, Diagnostic{
		Pos:      c.Pos(),
		Analyzer: "directive",
		Message:  "malformed annotation: " + want,
	})
}

// transientWellFormed checks a //mehpt:transient comment carries a
// nonempty "-- reason" clause and nothing between the head and the dashes.
func transientWellFormed(text string) bool {
	rest := text[len(transientPrefix):]
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return false // e.g. //mehpt:transientX — not this annotation
	}
	head, reason, found := strings.Cut(rest, "--")
	if !found || strings.TrimSpace(head) != "" {
		return false
	}
	return strings.TrimSpace(reason) != ""
}

func commentsOf(cg *ast.CommentGroup) []*ast.Comment {
	if cg == nil {
		return nil
	}
	return cg.List
}
