package lint

import (
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

func loadFixture(t *testing.T, name string) []*Package {
	t.Helper()
	fset := token.NewFileSet()
	pkg, err := Load(fset, filepath.Join("testdata", name), "")
	if err != nil {
		t.Fatal(err)
	}
	if pkg == nil {
		t.Fatalf("fixture %s: no Go files", name)
	}
	return []*Package{pkg}
}

// expectDiags asserts one diagnostic per expected substring, in order.
func expectDiags(t *testing.T, diags []Diagnostic, want []string) {
	t.Helper()
	for _, d := range diags {
		t.Logf("  %s", d)
	}
	if len(diags) != len(want) {
		t.Fatalf("got %d diagnostics, want %d", len(diags), len(want))
	}
	for i, w := range want {
		if !strings.Contains(diags[i].String(), w) {
			t.Errorf("diagnostic %d = %s, want substring %q", i, diags[i], w)
		}
	}
}

func TestHotPathFixture(t *testing.T) {
	pkgs := loadFixture(t, "hotpath")
	a := HotPathAllocWithRoots([]string{"hotpath.Hot"})
	diags := Run(pkgs, []*Analyzer{a})
	expectDiags(t, diags, []string{
		"make(map) allocates",       // newState
		"append onto a fresh slice", // helper ys
		"sort.Ints",                 // helper sort
		"conversion to any",         // helper boxing
		"map literal",               // thing.method
	})
	for _, d := range diags {
		if strings.Contains(d.Message, "Cold") {
			t.Errorf("unreachable Cold was flagged: %s", d)
		}
	}
	// The //plim:alloc-ok site in helper is line 24; assert it is absent.
	for _, d := range diags {
		if d.Pos.Line == 24 {
			t.Errorf("annotated allocation was flagged: %s", d)
		}
	}
}

// TestHotPathNoRootsNoFindings: a root in a package that is not loaded
// reaches nothing and reports nothing, as in a single-directory run with
// the default roots.
func TestHotPathNoRootsNoFindings(t *testing.T) {
	pkgs := loadFixture(t, "hotpath")
	a := HotPathAllocWithRoots([]string{"elsewhere.Hot"})
	if diags := Run(pkgs, []*Analyzer{a}); len(diags) != 0 {
		t.Fatalf("no reachable roots but got %d diagnostics: %v", len(diags), diags)
	}
}

// TestHotPathStaleRootReported: a root whose package is loaded but which
// names no function in it is a finding of its own, beside the findings of
// the roots that do name one.
func TestHotPathStaleRootReported(t *testing.T) {
	pkgs := loadFixture(t, "hotpath")
	a := HotPathAllocWithRoots([]string{"hotpath.Hot", "hotpath.NoSuchRoot"})
	expectDiags(t, Run(pkgs, []*Analyzer{a}), []string{
		"hot-path root hotpath.NoSuchRoot names no function in package hotpath",
		"make(map) allocates",
		"append onto a fresh slice",
		"sort.Ints",
		"conversion to any",
		"map literal",
	})
}

func TestDeterminismFixture(t *testing.T) {
	pkgs := loadFixture(t, "determinism")
	diags := Run(pkgs, []*Analyzer{Determinism})
	expectDiags(t, diags, []string{
		"time.Now call in identity-sensitive determinism.stamp",
		"iteration over a map (randomized order) in identity-sensitive determinism.serialize",
		"iteration over a map (randomized order) in identity-sensitive determinism.CacheKey",
		"iteration over a map (randomized order) in identity-sensitive determinism.Fingerprint",
	})
	for _, d := range diags {
		if strings.Contains(d.Message, "Elapsed") || strings.Contains(d.Message, "serializeSlice") {
			t.Errorf("out-of-scope function flagged: %s", d)
		}
	}
}

func TestCtxFirstFixture(t *testing.T) {
	pkgs := loadFixture(t, "ctxfirst")
	diags := Run(pkgs, []*Analyzer{CtxFirst})
	expectDiags(t, diags, []string{
		"ctxfirst.Bad takes context.Context as parameter 2",
		"ctxfirst.Run takes context.Context as parameter 2",
	})
}

// TestModuleClean is the invariant itself: the full analyzer suite finds
// nothing in the real module. A regression here means a hot path gained an
// unannotated allocation, identity code started consulting the clock or a
// map's order, or an exported API buried its context.
func TestModuleClean(t *testing.T) {
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	module := ModulePath(root)
	if module == "" {
		t.Fatal("module path not found from go.mod")
	}
	pkgs, err := LoadTree(fset, root, module)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages from %s; tree walk is broken", len(pkgs), root)
	}
	diags := Run(pkgs, Analyzers())
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if len(diags) > 0 {
		t.Fatalf("%d lint finding(s) in the module", len(diags))
	}
}

func TestModulePath(t *testing.T) {
	if got := ModulePath(filepath.Join("..", "..")); got != "plim" {
		t.Fatalf("ModulePath = %q, want plim", got)
	}
	if got := ModulePath("testdata"); got != "" {
		t.Fatalf("ModulePath(testdata) = %q, want empty", got)
	}
}
