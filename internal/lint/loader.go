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
	"sync"
)

// Package is one type-checked analysis unit: the package's build files
// plus its in-package test files (external _test packages are loaded as
// their own unit). Type errors do not abort loading — they are recorded
// so the driver can report them and keep going on other packages.
type Package struct {
	Path string // import path, e.g. gnndrive/internal/core
	Name string // package name

	Fset     *token.FileSet
	Files    []*ast.File
	TestFile map[*ast.File]bool
	Info     *types.Info
	// TypeErrors holds every type-check diagnostic. A package with type
	// errors is reported, not analyzed.
	TypeErrors []types.Error
}

// Loader loads and type-checks this module's packages from source. One
// Loader shares a FileSet, a stdlib source importer, and a memoized
// dependency cache across every package it loads, so repeated loads
// (the analyzer fixtures, the cmd driver's ./... walk) do not re-check
// the world.
type Loader struct {
	Root   string // module root directory (holds go.mod)
	Module string // module path from go.mod

	mu   sync.Mutex
	fset *token.FileSet
	std  types.Importer
	deps map[string]*depEntry
}

type depEntry struct {
	pkg     *types.Package
	err     error
	loading bool
}

// FindModuleRoot walks up from dir to the directory holding go.mod.
func FindModuleRoot(dir string) (string, error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("lint: no go.mod above %s", dir)
		}
		d = parent
	}
}

// NewLoader builds a loader rooted at the module containing dir.
func NewLoader(dir string) (*Loader, error) {
	root, err := FindModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	mod, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Root:   root,
		Module: mod,
		fset:   fset,
		std:    importer.ForCompiler(fset, "source", nil),
		deps:   make(map[string]*depEntry),
	}, nil
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
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module line in %s", gomod)
}

// Expand resolves command-line patterns to package directories. A
// pattern ending in /... walks the subtree rooted at its prefix; any
// other pattern names one directory. Relative patterns resolve against
// cwd. testdata, vendor, hidden, and underscore-prefixed directories
// are skipped by the walk (they can still be named explicitly, which is
// how the fixture corpus is loaded).
func (l *Loader) Expand(cwd string, patterns []string) ([]string, error) {
	var dirs []string
	seen := make(map[string]bool)
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if pat == "..." {
			pat, recursive = ".", true
		} else if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			pat, recursive = rest, true
		}
		d := pat
		if !filepath.IsAbs(d) {
			d = filepath.Join(cwd, d)
		}
		d = filepath.Clean(d)
		fi, err := os.Stat(d)
		if err != nil || !fi.IsDir() {
			return nil, fmt.Errorf("lint: pattern %q: not a directory", pat)
		}
		if !recursive {
			add(d)
			continue
		}
		err = filepath.WalkDir(d, func(path string, de os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !de.IsDir() {
				return nil
			}
			name := de.Name()
			if path != d && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if hasGoFiles(path) {
				add(path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true
		}
	}
	return false
}

// importPathFor maps a directory inside the module to its import path.
func (l *Loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.Root, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("lint: %s is outside module %s", dir, l.Root)
	}
	if rel == "." {
		return l.Module, nil
	}
	return l.Module + "/" + filepath.ToSlash(rel), nil
}

// dirFor maps a module import path back to its directory.
func (l *Loader) dirFor(path string) (string, bool) {
	if path == l.Module {
		return l.Root, true
	}
	if rest, ok := strings.CutPrefix(path, l.Module+"/"); ok {
		return filepath.Join(l.Root, filepath.FromSlash(rest)), true
	}
	return "", false
}

// Import implements types.Importer over the module: module-internal
// paths are type-checked from source (memoized, build files only);
// everything else is delegated to the stdlib source importer. The whole
// loader is serialized by l.mu — the source importer is not
// goroutine-safe.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if dir, ok := l.dirFor(path); ok {
		return l.dep(path, dir)
	}
	return l.std.Import(path)
}

// dep loads a module package for import purposes: build files only, and
// a type error anywhere fails the import (the importing package then
// reports it).
func (l *Loader) dep(path, dir string) (*types.Package, error) {
	if e, ok := l.deps[path]; ok {
		if e.loading {
			return nil, fmt.Errorf("lint: import cycle through %s", path)
		}
		return e.pkg, e.err
	}
	e := &depEntry{loading: true}
	l.deps[path] = e

	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		e.err = err
	} else {
		var files []*ast.File
		for _, name := range bp.GoFiles {
			f, perr := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
			if perr != nil {
				err = perr
				break
			}
			files = append(files, f)
		}
		if err != nil {
			e.err = err
		} else {
			conf := types.Config{Importer: l}
			e.pkg, e.err = conf.Check(path, l.fset, files, nil)
		}
	}
	e.loading = false
	return e.pkg, e.err
}

// Load loads the package in dir as one or two analysis units: the
// package proper (build files plus, when includeTests is set, the
// in-package test files) and, when present and requested, the external
// _test package as its own unit. A directory holding only external test
// files (a package of Example functions) loads as that one unit. Type
// errors are collected into the returned Packages, not returned as err;
// err is reserved for I/O and parse-level failures.
func (l *Loader) Load(dir string, includeTests bool) ([]*Package, error) {
	l.mu.Lock()
	defer l.mu.Unlock()

	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	path, err := l.importPathFor(dir)
	if err != nil {
		return nil, err
	}
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}

	var units []*Package
	if tests := testNames(includeTests, bp.TestGoFiles); len(bp.GoFiles)+len(tests) > 0 {
		main, err := l.checkUnit(path, dir, bp.GoFiles, tests)
		if err != nil {
			return nil, err
		}
		units = append(units, main)
	}
	if includeTests && len(bp.XTestGoFiles) > 0 {
		xt, err := l.checkUnit(path+"_test", dir, nil, bp.XTestGoFiles)
		if err != nil {
			return nil, err
		}
		units = append(units, xt)
	}
	if len(units) == 0 {
		return nil, fmt.Errorf("lint: no analyzable Go files in %s", dir)
	}
	return units, nil
}

func testNames(include bool, names []string) []string {
	if !include {
		return nil
	}
	return names
}

// checkUnit parses and type-checks one unit. The types.Config.Error
// hook collects every diagnostic; Check's own return value is dropped
// because the hook has already captured the diagnostics and a partial
// result must not abort the other packages.
func (l *Loader) checkUnit(path, dir string, buildNames, testFileNames []string) (*Package, error) {
	pkg := &Package{
		Path:     path,
		Fset:     l.fset,
		TestFile: make(map[*ast.File]bool),
	}
	parse := func(name string, isTest bool) error {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return err
		}
		pkg.Files = append(pkg.Files, f)
		if isTest {
			pkg.TestFile[f] = true
		}
		return nil
	}
	for _, name := range buildNames {
		if err := parse(name, false); err != nil {
			return nil, err
		}
	}
	for _, name := range testFileNames {
		if err := parse(name, true); err != nil {
			return nil, err
		}
	}
	pkg.Name = pkg.Files[0].Name.Name

	pkg.Info = &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{
		Importer: l,
		Error: func(err error) {
			if te, ok := err.(types.Error); ok {
				pkg.TypeErrors = append(pkg.TypeErrors, te)
			}
		},
	}
	_, _ = conf.Check(path, l.fset, pkg.Files, pkg.Info)
	return pkg, nil
}
