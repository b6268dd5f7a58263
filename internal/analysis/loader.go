package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// loader is the loader that produced this package; its waiver cache
	// is shared by every analyzer of the run.
	loader *Loader
}

// Loader loads packages from source, resolving import paths to
// directories via Resolve and type-checking them with go/types. It exists
// because the repository is stdlib-only: with golang.org/x/tools
// unavailable there is no go/packages, so dependencies (including the
// standard library) are parsed and checked from source. Loads are cached
// per import path.
type Loader struct {
	Fset *token.FileSet
	// Resolve maps an import path to the directory holding its sources.
	Resolve func(path string) (string, error)

	pkgs    map[string]*Package
	loading map[string]bool
	allows  map[string]*allowCache
}

type allowCache struct {
	set   *AllowSet
	diags []Diagnostic
}

// NewLoader returns a loader with an empty cache.
func NewLoader(resolve func(string) (string, error)) *Loader {
	return &Loader{
		Fset:    token.NewFileSet(),
		Resolve: resolve,
		pkgs:    map[string]*Package{},
		loading: map[string]bool{},
		allows:  map[string]*allowCache{},
	}
}

// AllowsFor returns the package's //mehpt:allow set, computing and caching
// it on first use. The single shared instance is what makes the staleallow
// audit sound: every analyzer's suppression pass marks usage on the same
// entries.
func (l *Loader) AllowsFor(pkg *Package) (*AllowSet, []Diagnostic) {
	if c, ok := l.allows[pkg.Path]; ok {
		return c.set, c.diags
	}
	set, diags := CollectAllows(pkg.Fset, pkg.Files)
	l.allows[pkg.Path] = &allowCache{set: set, diags: diags}
	return set, diags
}

// Load parses and type-checks the package at the given import path.
func (l *Loader) Load(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("import cycle through %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir, err := l.Resolve(path)
	if err != nil {
		return nil, err
	}
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name),
			nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	cfg := types.Config{
		Importer:    importerFunc(func(p string) (*types.Package, error) { return l.importPkg(p) }),
		FakeImportC: true,
		// Dependencies are checked from source; tolerate their soft errors
		// but fail loudly on the target package via the returned error.
		Error: func(error) {},
	}
	tpkg, err := cfg.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	p := &Package{Path: path, Fset: l.Fset, Files: files, Types: tpkg, Info: info, loader: l}
	l.pkgs[path] = p
	return p, nil
}

// importPkg implements the types.Importer side of the loader.
func (l *Loader) importPkg(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	p, err := l.Load(path)
	if err != nil {
		return nil, err
	}
	return p.Types, nil
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// gorootDir resolves a standard-library import path, trying the normal
// source tree and then the std vendor tree (e.g. golang.org/x/... imports
// inside net or crypto).
func gorootDir(path string) (string, error) {
	src := filepath.Join(build.Default.GOROOT, "src")
	dir := filepath.Join(src, filepath.FromSlash(path))
	if fi, err := os.Stat(dir); err == nil && fi.IsDir() {
		return dir, nil
	}
	dir = filepath.Join(src, "vendor", filepath.FromSlash(path))
	if fi, err := os.Stat(dir); err == nil && fi.IsDir() {
		return dir, nil
	}
	return "", fmt.Errorf("cannot resolve import %q", path)
}

// ModuleResolver resolves imports for a single module rooted at rootDir
// with the given module path; everything else is assumed to be standard
// library. This matches the repository's stdlib-only constraint.
func ModuleResolver(module, rootDir string) func(string) (string, error) {
	return func(path string) (string, error) {
		if path == module {
			return rootDir, nil
		}
		if rest, ok := strings.CutPrefix(path, module+"/"); ok {
			return filepath.Join(rootDir, filepath.FromSlash(rest)), nil
		}
		return gorootDir(path)
	}
}

// TestdataResolver resolves imports under a GOPATH-style srcRoot first
// (testdata/src/<importpath>), falling back to the standard library. The
// analysistest harness uses it so golden packages can mimic real repo
// import paths (e.g. repro/internal/simx) without living in the module.
func TestdataResolver(srcRoot string) func(string) (string, error) {
	return func(path string) (string, error) {
		dir := filepath.Join(srcRoot, filepath.FromSlash(path))
		if fi, err := os.Stat(dir); err == nil && fi.IsDir() {
			return dir, nil
		}
		return gorootDir(path)
	}
}
