package analysis

// KnownAnnotations lists every valid //mehpt: comment head, for the
// staleallow analyzer's unknown-annotation check. allow carries optional
// :file/:package scope suffixes, validated separately by CollectAllows.
func KnownAnnotations() []string {
	return []string{"allow"}
}
