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

// Package is one parsed and type-checked package, ready for analysis.
type Package struct {
	// Path is the import path ("repro/internal/sched", or a synthetic path
	// for testdata packages).
	Path string
	// Dir is the absolute directory the sources were read from.
	Dir string
	// Fset is the loader's shared file set.
	Fset *token.FileSet
	// Files holds the parsed non-test sources in file-name order.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info holds the type-checker's expression/object tables.
	Info *types.Info
}

// Loader parses and type-checks packages of this module using only the
// standard library, so it works with no network and no module cache:
// module-local import paths resolve against the module root, and
// standard-library imports are type-checked from GOROOT source via
// go/importer's "source" compiler.
type Loader struct {
	// Fset is shared by every package the loader touches.
	Fset *token.FileSet
	// ModulePath and ModuleDir locate the module ("repro" → ModuleDir).
	ModulePath string
	ModuleDir  string

	std     types.Importer
	pkgs    map[string]*Package
	loading map[string]bool
}

// NewLoader returns a loader for the module rooted at dir (the directory
// holding go.mod).
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(abs)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:       fset,
		ModulePath: modPath,
		ModuleDir:  abs,
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       map[string]*Package{},
		loading:    map[string]bool{},
	}, nil
}

// modulePath reads the module path from dir/go.mod.
func modulePath(dir string) (string, error) {
	data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return "", fmt.Errorf("lint: cannot read go.mod: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, "module ") {
			return strings.TrimSpace(strings.TrimPrefix(line, "module ")), nil
		}
	}
	return "", fmt.Errorf("lint: no module line in %s/go.mod", dir)
}

// Load returns the type-checked package with the given module-local import
// path, loading it (and its module-local dependencies) on first use.
func (l *Loader) Load(path string) (*Package, error) {
	dir, ok := l.dirFor(path)
	if !ok {
		return nil, fmt.Errorf("lint: %q is not a module-local import path", path)
	}
	return l.LoadDir(dir, path)
}

// dirFor maps a module-local import path to its directory.
func (l *Loader) dirFor(path string) (string, bool) {
	if path == l.ModulePath {
		return l.ModuleDir, true
	}
	rest, ok := strings.CutPrefix(path, l.ModulePath+"/")
	if !ok {
		return "", false
	}
	return filepath.Join(l.ModuleDir, filepath.FromSlash(rest)), true
}

// LoadDir parses and type-checks the package in dir under the given import
// path. It is how testdata packages — which live outside the module's
// package tree — are loaded; their imports of module packages still
// resolve.
func (l *Loader) LoadDir(dir, path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no buildable Go files in %s", dir)
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: (*loaderImporter)(l)}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s (%s): %w", path, dir, err)
	}

	pkg := &Package{
		Path:  path,
		Dir:   dir,
		Fset:  l.Fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// isSourceFile reports whether dir/name is a non-test Go source file the
// go command would compile for the current GOOS/GOARCH: its file-name
// suffixes and //go:build line are honored, so a package with per-arch
// files type-checks as one build does.
func isSourceFile(dir, name string) bool {
	if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") ||
		strings.HasPrefix(name, "_") || strings.HasPrefix(name, ".") {
		return false
	}
	ok, err := build.Default.MatchFile(dir, name)
	return err == nil && ok
}

// parseDir parses the non-test .go files of dir in name order.
func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !isSourceFile(dir, name) {
			continue
		}
		full := filepath.Join(dir, name)
		f, err := parser.ParseFile(l.Fset, full, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		files = append(files, f)
	}
	return files, nil
}

// loaderImporter adapts Loader to go/types' import hooks: module-local
// paths load recursively from source, everything else goes to the
// standard-library source importer.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	return li.ImportFrom(path, "", 0)
}

func (li *loaderImporter) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	l := (*Loader)(li)
	if dir, ok := l.dirFor(path); ok {
		pkg, err := l.LoadDir(dir, path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	if from, ok := l.std.(types.ImporterFrom); ok {
		return from.ImportFrom(path, srcDir, mode)
	}
	return l.std.Import(path)
}

// Discover walks the module tree and returns the import paths of every
// package holding at least one non-test .go file, sorted. Directories
// named testdata (and hidden directories) are skipped, so seeded analyzer
// violations under internal/lint/testdata never count as repo findings.
func (l *Loader) Discover() ([]string, error) {
	var paths []string
	err := filepath.WalkDir(l.ModuleDir, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != l.ModuleDir && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		entries, err := os.ReadDir(p)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if e.IsDir() || !isSourceFile(p, e.Name()) {
				continue
			}
			rel, err := filepath.Rel(l.ModuleDir, p)
			if err != nil {
				return err
			}
			if rel == "." {
				paths = append(paths, l.ModulePath)
			} else {
				paths = append(paths, l.ModulePath+"/"+filepath.ToSlash(rel))
			}
			break
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	return paths, nil
}
