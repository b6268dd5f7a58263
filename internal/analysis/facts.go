package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file is the per-package fact table behind the taint engine
// (taint.go): every function declaration of a package, computed lazily
// per package and cached on the Loader, so queries cross package
// boundaries — cross-package fact export in the x/tools sense, without
// leaving the stdlib. Traversal stops at the standard library, whose
// behaviour comes from curated tables, never from walking std sources.

// FuncSummary is one declared function with the syntax that declares it,
// so flow-sensitive passes can re-walk the body on demand.
type FuncSummary struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
}

// PkgFacts is everything the fact engine knows about one package.
type PkgFacts struct {
	Pkg   *Package
	Funcs map[*types.Func]*FuncSummary
	// taint caches per-function taint summaries (taint.go).
	taint map[*types.Func]*TaintSummary
}

// Facts answers cross-package questions for one analysis run. It is handed
// to analyzers through Pass.Facts.
type Facts struct {
	loader *Loader
}

// PackageFacts returns the fact table for the package at path, computing
// and caching it on first use. Standard-library packages return nil.
func (f *Facts) PackageFacts(path string) (*PkgFacts, error) {
	if f == nil || f.loader == nil {
		return nil, nil
	}
	if pf, ok := f.loader.facts[path]; ok {
		return pf, nil
	}
	pkg, err := f.loader.Load(path)
	if err != nil {
		return nil, err
	}
	if pkg.Std {
		f.loader.facts[path] = nil
		return nil, nil
	}
	pf := computeFacts(pkg)
	f.loader.facts[path] = pf
	return pf, nil
}

func (f *Facts) factsFor(fn *types.Func) *PkgFacts {
	if fn == nil || fn.Pkg() == nil {
		return nil
	}
	pf, err := f.PackageFacts(fn.Pkg().Path())
	if err != nil {
		return nil
	}
	return pf
}

// computeFacts records every function declaration with a body in pkg.
func computeFacts(pkg *Package) *PkgFacts {
	pf := &PkgFacts{
		Pkg:   pkg,
		Funcs: map[*types.Func]*FuncSummary{},
		taint: map[*types.Func]*TaintSummary{},
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, _ := pkg.Info.Defs[fd.Name].(*types.Func); fn != nil {
				pf.Funcs[fn] = &FuncSummary{Fn: fn, Decl: fd}
			}
		}
	}
	return pf
}

// CalleeFunc resolves the *types.Func a call targets, or nil for func
// values.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn
			}
			return nil // field of func type
		}
		// Package-qualified call: pkg.Func.
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// funcName renders pkg.Func or pkg.(Type).Method.
func funcName(fn *types.Func) string {
	if fn.Pkg() == nil {
		return fn.Name()
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			return fn.Pkg().Name() + "." + n.Obj().Name() + "." + fn.Name()
		}
	}
	return fn.Pkg().Name() + "." + fn.Name()
}

func relPosition(pos token.Position) string {
	name := pos.Filename
	if i := strings.LastIndex(name, "/internal/"); i >= 0 {
		name = name[i+1:]
	}
	return fmt.Sprintf("%s:%d", name, pos.Line)
}
