// Package lint is a small, dependency-free static-analysis framework plus
// the analyzers that encode this repository's invariants. It deliberately
// mirrors the shape of golang.org/x/tools/go/analysis — an Analyzer with a
// name, doc string and Run function producing Diagnostics — but is built on
// the standard library alone (go/ast, go/parser, go/token), because the
// module carries no external dependencies. The analyzers are purely
// syntactic: they parse, they do not type-check, and their heuristics are
// tuned to this codebase (see each analyzer's doc).
//
// Three invariants are enforced:
//
//   - hotpathalloc: no fresh allocations (map construction, growth from a
//     fresh slice, interface boxing, sort/heap calls) in functions reachable
//     from the pinned hot-path roots compile.Compile, exec.Run and
//     exec.Batch.AppendVectors (DefaultHotPathRoots). These paths run per
//     compile / per executed batch and are covered by an allocs/op
//     benchmark gate; a stray map literal in a helper three calls down
//     silently regresses it. The //plim:alloc-ok <reason> line
//     directive acknowledges a deliberate, measured allocation, and a root
//     that names no function in its loaded package is itself a finding.
//
//   - determinism: no time.Now and no ranging over maps in code that
//     produces stable identities — functions whose names mention
//     Fingerprint/Hash/Key, and everything in codec.go/coalesce.go files.
//     Fingerprints are persisted in the disk cache and compared across
//     processes; map iteration order would make them flap.
//
//   - ctxfirst: exported functions and methods that accept a
//     context.Context take it as the first parameter, per Go convention.
//
// The cmd/plimlint command runs all analyzers over a package tree.
package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// An Analyzer is one named check over a set of packages.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics (e.g. "hotpathalloc").
	Name string
	// Doc is a one-line description.
	Doc string
	// Run inspects the packages and reports findings. Analyzers that need a
	// whole-program view (call graphs) receive every loaded package at once.
	Run func(pkgs []*Package) []Diagnostic
}

// A Package is one parsed (not type-checked) Go package.
type Package struct {
	// Path is the import path ("plim/internal/compile") when known, else the
	// package name.
	Path string
	// Name is the package clause name.
	Name string
	// Dir is the directory the files were read from.
	Dir string
	// Fset positions all files of all packages loaded together.
	Fset *token.FileSet
	// Files are the parsed non-test sources, with comments.
	Files []*ast.File
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Analyzers returns the full suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{HotPathAlloc, Determinism, CtxFirst}
}

// Load parses the non-test .go files of the package in dir into pkg using
// the shared fset. Test files are excluded: the invariants guard production
// code, and tests allocate freely. Returns nil (no error) for directories
// with no non-test Go files.
func Load(fset *token.FileSet, dir, path string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	pkg := &Package{Path: path, Dir: dir, Fset: fset}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		pkg.Files = append(pkg.Files, f)
		pkg.Name = f.Name.Name
	}
	if len(pkg.Files) == 0 {
		return nil, nil
	}
	if pkg.Path == "" {
		pkg.Path = pkg.Name
	}
	return pkg, nil
}

// LoadTree loads every package under root (recursively), skipping testdata,
// vendor and hidden directories. modulePath, when non-empty, qualifies each
// package's import path as modulePath/relative-dir.
func LoadTree(fset *token.FileSet, root, modulePath string) ([]*Package, error) {
	var pkgs []*Package
	err := filepath.WalkDir(root, func(dir string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		base := filepath.Base(dir)
		if dir != root && (base == "testdata" || base == "vendor" || strings.HasPrefix(base, ".")) {
			return filepath.SkipDir
		}
		path := ""
		if modulePath != "" {
			rel, err := filepath.Rel(root, dir)
			if err != nil {
				return err
			}
			path = modulePath
			if rel != "." {
				path = modulePath + "/" + filepath.ToSlash(rel)
			}
		}
		pkg, err := Load(fset, dir, path)
		if err != nil {
			return err
		}
		if pkg != nil {
			pkgs = append(pkgs, pkg)
		}
		return nil
	})
	return pkgs, err
}

// ModulePath reads the module path from root/go.mod ("" when absent).
func ModulePath(root string) string {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest)
		}
	}
	return ""
}

// Run executes the analyzers over the packages and returns the findings
// sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		diags = append(diags, a.Run(pkgs)...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// fileImports maps local import names to import paths for one file, so
// syntactic analyzers can tell `time.Now` from a selector on a variable
// that happens to be called time.
func fileImports(f *ast.File) map[string]string {
	m := make(map[string]string, len(f.Imports))
	for _, imp := range f.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		name := path[strings.LastIndexByte(path, '/')+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		m[name] = path
	}
	return m
}

// directiveLines collects the line numbers carrying a //plim:<name> comment
// (the line of the comment itself). A directive suppresses diagnostics on
// its own line and, when it stands alone, on the following line.
func directiveLines(fset *token.FileSet, f *ast.File, directive string) map[int]bool {
	lines := make(map[int]bool)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if strings.HasPrefix(c.Text, "//"+directive) {
				lines[fset.Position(c.Pos()).Line] = true
			}
		}
	}
	return lines
}

// suppressed reports whether a diagnostic at pos is covered by a directive
// on the same line or the line directly above.
func suppressed(lines map[int]bool, pos token.Position) bool {
	return lines[pos.Line] || lines[pos.Line-1]
}
