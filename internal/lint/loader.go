package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Module is a fully parsed and type-checked Go module.
type Module struct {
	Dir  string // absolute module root
	Path string // module path from go.mod
	Fset *token.FileSet
	Pkgs []*Package // every non-test package, sorted by import path

	// Lazily built, shared analysis state (see callgraph.go and lint.go).
	funcs     []*FuncNode
	cfgs      map[*ast.FuncDecl]*CFG
	allows    allowSet
	allowErrs []rawFinding
}

// Package is one type-checked package of a Module.
type Package struct {
	Path  string // import path
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Load parses and type-checks every non-test package under the module
// rooted at dir, resolving standard-library imports from GOROOT source so
// no toolchain invocation or third-party loader is needed.
//
// Test files are excluded on purpose: the invariants skylint enforces
// protect simulation and server code paths, and leaving _test.go out keeps
// the type-checker away from external test packages.
func Load(dir string) (*Module, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	l := &loader{
		fset:    token.NewFileSet(),
		modDir:  abs,
		modPath: modPath,
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}
	l.std = importer.ForCompiler(l.fset, "source", nil).(types.ImporterFrom)
	paths, err := l.packagePaths()
	if err != nil {
		return nil, err
	}
	for _, p := range paths {
		if _, err := l.load(p); err != nil {
			return nil, err
		}
	}
	mod := &Module{Dir: abs, Path: modPath, Fset: l.fset}
	for _, p := range l.pkgs {
		mod.Pkgs = append(mod.Pkgs, p)
	}
	sort.Slice(mod.Pkgs, func(i, j int) bool { return mod.Pkgs[i].Path < mod.Pkgs[j].Path })
	return mod, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

type loader struct {
	fset    *token.FileSet
	modDir  string
	modPath string
	std     types.ImporterFrom
	pkgs    map[string]*Package
	loading map[string]bool // cycle detection
}

// packagePaths walks the module tree and returns the import path of every
// directory holding non-test Go files. testdata, vendor, hidden, and
// underscore-prefixed directories are skipped, mirroring the go tool.
func (l *loader) packagePaths() ([]string, error) {
	var paths []string
	err := filepath.WalkDir(l.modDir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != l.modDir && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !isLintedGoFile(filepath.Dir(path), d.Name()) {
			return nil
		}
		rel, err := filepath.Rel(l.modDir, filepath.Dir(path))
		if err != nil {
			return err
		}
		importPath := l.modPath
		if rel != "." {
			importPath += "/" + filepath.ToSlash(rel)
		}
		if len(paths) == 0 || paths[len(paths)-1] != importPath {
			paths = append(paths, importPath)
		}
		return nil
	})
	return paths, err
}

// isLintedGoFile reports whether dir/name is a non-test Go file the go
// tool would build here: a file constrained to another GOOS (a _darwin.go
// suffix, a //go:build !linux line) is left out, as it is from the build,
// so that a per-OS pair of files does not declare its names twice.
func isLintedGoFile(dir, name string) bool {
	if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
		return false
	}
	match, err := build.Default.MatchFile(dir, name)
	return err != nil || match // an unreadable file is reported by the parser
}

// dirFor maps a module-internal import path back to its directory.
func (l *loader) dirFor(importPath string) string {
	if importPath == l.modPath {
		return l.modDir
	}
	rel := strings.TrimPrefix(importPath, l.modPath+"/")
	return filepath.Join(l.modDir, filepath.FromSlash(rel))
}

// load parses and type-checks one module-internal package (memoized).
func (l *loader) load(importPath string) (*Package, error) {
	if p, ok := l.pkgs[importPath]; ok {
		return p, nil
	}
	if l.loading[importPath] {
		return nil, fmt.Errorf("lint: import cycle through %s", importPath)
	}
	l.loading[importPath] = true
	defer delete(l.loading, importPath)

	dir := l.dirFor(importPath)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !isLintedGoFile(dir, e.Name()) {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(importPath, l.fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("lint: type-checking %s: %w", importPath, typeErrs[0])
	}
	p := &Package{Path: importPath, Files: files, Types: tpkg, Info: info}
	l.pkgs[importPath] = p
	return p, nil
}

// Import implements types.Importer: module-internal paths are loaded from
// source here; everything else (the standard library) is delegated to the
// GOROOT source importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.ImportFrom(path, l.modDir, 0)
}
