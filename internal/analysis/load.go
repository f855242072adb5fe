package analysis

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

// Package is one typechecked package of the module under analysis.
type Package struct {
	Path  string // import path, e.g. bulletfs/internal/cache
	Dir   string // absolute directory
	Fset  *token.FileSet
	Files []*ast.File // non-test files, with comments
	Types *types.Package
	Info  *types.Info
}

// Program is the set of packages a run analyzes, plus every module-internal
// dependency that had to be typechecked to get there.
type Program struct {
	Fset       *token.FileSet
	ModulePath string
	ModuleDir  string
	Pkgs       []*Package // analysis targets, sorted by import path
	byPath     map[string]*Package
	graph      *CallGraph // built lazily by CallGraph()
}

// PackageByPath returns the loaded package with the given import path, or
// nil. It sees dependencies as well as analysis targets.
func (p *Program) PackageByPath(path string) *Package { return p.byPath[path] }

// loader typechecks module packages from source. For imports outside the
// module (the standard library) it delegates to the stdlib source importer,
// so the whole pipeline needs nothing but GOROOT/src and this module's
// tree — no export data, no third-party machinery.
type loader struct {
	modulePath string
	moduleDir  string
	fset       *token.FileSet
	pkgs       map[string]*Package
	loading    map[string]bool
	fallback   types.Importer
}

func newLoader(moduleDir, modulePath string) *loader {
	fset := token.NewFileSet()
	return &loader{
		modulePath: modulePath,
		moduleDir:  moduleDir,
		fset:       fset,
		pkgs:       make(map[string]*Package),
		loading:    make(map[string]bool),
		fallback:   importer.ForCompiler(fset, "source", nil),
	}
}

// Import implements types.Importer: module-internal paths are typechecked
// from source (memoized), everything else goes to the stdlib importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == l.modulePath || strings.HasPrefix(path, l.modulePath+"/") {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.fallback.Import(path)
}

// dirFor maps a module import path to its directory.
func (l *loader) dirFor(path string) string {
	if path == l.modulePath {
		return l.moduleDir
	}
	rel := strings.TrimPrefix(path, l.modulePath+"/")
	return filepath.Join(l.moduleDir, filepath.FromSlash(rel))
}

func (l *loader) load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir := l.dirFor(path)
	names, err := goFilesIn(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: parsing %s: %w", name, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: typechecking %s: %w", path, err)
	}
	pkg := &Package{Path: path, Dir: dir, Fset: l.fset, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = pkg
	return pkg, nil
}

// goFilesIn lists the non-test .go files of dir that build on the host,
// sorted. go/build decides, from file-name suffixes and //go:build lines
// alike, so a package with per-platform files (internal/layout's checksum)
// is checked as the host compiles it.
func goFilesIn(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: reading %s: %w", dir, err)
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		ok, err := build.Default.MatchFile(dir, name)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		if ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names, nil
}

// modulePathOf reads the module path out of dir/go.mod.
func modulePathOf(dir string) (string, error) {
	data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return "", fmt.Errorf("analysis: reading go.mod: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module"); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analysis: no module line in %s/go.mod", dir)
}

// FindModuleRoot walks up from dir to the nearest directory containing a
// go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", fmt.Errorf("analysis: resolving %s: %w", dir, err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("at or above %s: %w", dir, ErrNoModule)
		}
		dir = parent
	}
}

// LoadModule typechecks the packages of the module rooted at moduleDir that
// match the given patterns and returns them as a Program. Patterns follow
// the go tool's shape, resolved against moduleDir: "./..." for the whole
// module, "./x/..." for a subtree, "./x" (or "x") for one package.
// Directories named testdata, hidden directories, and _-prefixed
// directories are never discovered by "..." patterns, but an exact
// pattern naming such a directory loads it anyway — that is how the CLI
// (and its tests) point bulletlint at a testdata tree on purpose.
func LoadModule(moduleDir string, patterns []string) (*Program, error) {
	moduleDir, err := filepath.Abs(moduleDir)
	if err != nil {
		return nil, fmt.Errorf("analysis: resolving %s: %w", moduleDir, err)
	}
	modulePath, err := modulePathOf(moduleDir)
	if err != nil {
		return nil, err
	}
	rels, err := discoverPackageDirs(moduleDir)
	if err != nil {
		return nil, err
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var targets []string
	seen := make(map[string]bool)
	for _, pat := range patterns {
		matched := false
		for _, rel := range rels {
			if matchPattern(pat, rel) && !seen[rel] {
				seen[rel] = true
				matched = true
				targets = append(targets, rel)
			} else if matchPattern(pat, rel) {
				matched = true
			}
		}
		if !matched {
			// An exact pattern may name a directory discovery skips
			// (testdata trees); load it if it really holds Go files.
			if rel, ok := exactDir(moduleDir, pat); ok {
				if !seen[rel] {
					seen[rel] = true
					targets = append(targets, rel)
				}
				continue
			}
			return nil, fmt.Errorf("%q: %w", pat, ErrBadPattern)
		}
	}
	sort.Strings(targets)

	l := newLoader(moduleDir, modulePath)
	prog := &Program{Fset: l.fset, ModulePath: modulePath, ModuleDir: moduleDir, byPath: l.pkgs}
	for _, rel := range targets {
		path := modulePath
		if rel != "." {
			path = modulePath + "/" + filepath.ToSlash(rel)
		}
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		prog.Pkgs = append(prog.Pkgs, pkg)
	}
	return prog, nil
}

// LoadDirs typechecks the given directories (relative to moduleDir) as
// packages of the module, regardless of discovery rules — the hook tests
// use to analyze testdata trees.
func LoadDirs(moduleDir string, rels []string) (*Program, error) {
	moduleDir, err := filepath.Abs(moduleDir)
	if err != nil {
		return nil, fmt.Errorf("analysis: resolving %s: %w", moduleDir, err)
	}
	modulePath, err := modulePathOf(moduleDir)
	if err != nil {
		return nil, err
	}
	l := newLoader(moduleDir, modulePath)
	prog := &Program{Fset: l.fset, ModulePath: modulePath, ModuleDir: moduleDir, byPath: l.pkgs}
	for _, rel := range rels {
		pkg, err := l.load(modulePath + "/" + filepath.ToSlash(rel))
		if err != nil {
			return nil, err
		}
		prog.Pkgs = append(prog.Pkgs, pkg)
	}
	return prog, nil
}

// exactDir reports whether pat is an exact (non-wildcard) pattern naming a
// module directory with buildable Go files, returning its clean
// module-relative form.
func exactDir(moduleDir, pat string) (string, bool) {
	if strings.Contains(pat, "...") {
		return "", false
	}
	rel := strings.TrimSuffix(strings.TrimPrefix(pat, "./"), "/")
	if rel == "" {
		rel = "."
	}
	rel = filepath.ToSlash(filepath.Clean(rel))
	if rel == ".." || strings.HasPrefix(rel, "../") || filepath.IsAbs(rel) {
		return "", false
	}
	names, err := goFilesIn(filepath.Join(moduleDir, filepath.FromSlash(rel)))
	if err != nil || len(names) == 0 {
		return "", false
	}
	return rel, true
}

// discoverPackageDirs returns the module-relative directories ("." for the
// root) that contain at least one buildable non-test Go file.
func discoverPackageDirs(moduleDir string) ([]string, error) {
	var rels []string
	err := filepath.WalkDir(moduleDir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != moduleDir && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		names, err := goFilesIn(path)
		if err != nil {
			return err
		}
		if len(names) > 0 {
			rel, err := filepath.Rel(moduleDir, path)
			if err != nil {
				return err
			}
			rels = append(rels, filepath.ToSlash(rel))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("analysis: walking module: %w", err)
	}
	sort.Strings(rels)
	return rels, nil
}

// matchPattern reports whether the module-relative directory rel matches a
// go-tool-style pattern.
func matchPattern(pat, rel string) bool {
	pat = strings.TrimPrefix(pat, "./")
	pat = strings.TrimSuffix(pat, "/")
	if pat == "..." {
		return true
	}
	if sub, ok := strings.CutSuffix(pat, "/..."); ok {
		return rel == sub || strings.HasPrefix(rel, sub+"/")
	}
	if pat == "" || pat == "." {
		return rel == "."
	}
	return rel == pat
}
