package satest

// The file-scope waiver below once covered a map-ordered dump routine;
// the routine is gone and the waiver outlived it.
//
//mehpt:allow:file detflow -- stale file-wide waiver // want `stale //mehpt:allow`

func helper() int { return 3 }

var _ = helper
