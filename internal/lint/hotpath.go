package lint

import (
	"fmt"
	"go/ast"
	"strings"
)

// DefaultHotPathRoots are the pinned entry points of the three allocation-
// sensitive paths: the compiler (run once per compile request, gated by an
// allocs/op benchmark), the batched executor's one runner (run once per
// executed batch, on the calling goroutine or sharded over the scheduler)
// and the batch's one bit-to-text loop (run once per execute response
// with "0101" outputs, over every output bit). Roots are written pkg.Func
// or pkg.Type.Method, where pkg is the import path or the bare package
// name.
var DefaultHotPathRoots = []string{
	"plim/internal/compile.Compile",
	"plim/internal/exec.Run",
	"plim/internal/exec.Batch.AppendVectors",
}

// HotPathAlloc flags allocation sites in functions reachable from
// DefaultHotPathRoots. See HotPathAllocWithRoots for the mechanics.
var HotPathAlloc = HotPathAllocWithRoots(DefaultHotPathRoots)

// HotPathAllocWithRoots builds the hot-path allocation analyzer for a
// custom root set.
//
// The analyzer constructs a name-based call graph over all loaded packages:
// a plain call f() resolves to the same package's f; pkg.F() resolves
// through the file's imports; a method call x.M() conservatively resolves
// to every method named M in the same package and in the packages the file
// imports. Within the reachable set it flags construction of maps (make or
// literal), append onto a freshly constructed slice, explicit interface
// boxing (any(...) / interface{}(...)), and calls into sort or
// container/heap (which box their arguments). Calls through stored
// function values are invisible to a syntactic graph — keep hot-path
// indirection behind interfaces out of these packages, or add explicit
// roots. A root whose package is loaded but which names no function in it
// is reported, so a renamed root cannot silently check nothing. A
// deliberate allocation is acknowledged in place:
//
//	//plim:alloc-ok one-time result copy, not per-node
//	out := append([]uint64(nil), counts...)
func HotPathAllocWithRoots(roots []string) *Analyzer {
	return &Analyzer{
		Name: "hotpathalloc",
		Doc:  "flags allocations in functions reachable from the pinned hot-path roots",
		Run:  func(pkgs []*Package) []Diagnostic { return hotPathAlloc(pkgs, roots) },
	}
}

// A funcNode is one function or method in the call graph.
type funcNode struct {
	pkg  *Package
	file *ast.File
	decl *ast.FuncDecl
	// name is "F" for a function, "T.M" for a method on T.
	name string
	// root is the hot-path root this node was first reached from.
	root string
}

func (n *funcNode) method() (string, bool) {
	if _, m, ok := strings.Cut(n.name, "."); ok {
		return m, true
	}
	return "", false
}

func hotPathAlloc(pkgs []*Package, roots []string) []Diagnostic {
	// Index every function declaration.
	var nodes []*funcNode
	plain := make(map[*Package]map[string][]*funcNode)   // package → func name
	methods := make(map[*Package]map[string][]*funcNode) // package → method name
	byPath := make(map[string]*Package)
	for _, pkg := range pkgs {
		byPath[pkg.Path] = pkg
		plain[pkg] = make(map[string][]*funcNode)
		methods[pkg] = make(map[string][]*funcNode)
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				n := &funcNode{pkg: pkg, file: f, decl: fd, name: fd.Name.Name}
				if fd.Recv != nil {
					if t := recvTypeName(fd.Recv); t != "" {
						n.name = t + "." + fd.Name.Name
					}
				}
				nodes = append(nodes, n)
				if m, ok := n.method(); ok {
					methods[pkg][m] = append(methods[pkg][m], n)
				} else {
					plain[pkg][n.name] = append(plain[pkg][n.name], n)
				}
			}
		}
	}

	// Seed the worklist with the roots.
	rootSet := make(map[string]string, len(roots)) // qualified name → root spec
	for _, r := range roots {
		rootSet[r] = r
	}
	var queue []*funcNode
	reached := make(map[*funcNode]bool)
	named := make(map[string]bool, len(roots))
	for _, n := range nodes {
		for _, key := range []string{n.pkg.Path + "." + n.name, n.pkg.Name + "." + n.name} {
			if r, ok := rootSet[key]; ok {
				named[r] = true
				if !reached[n] {
					n.root = r
					reached[n] = true
					queue = append(queue, n)
				}
			}
		}
	}
	// A root that names nothing in its loaded package would check nothing
	// and pass: after a rename, that is a silently dropped hot path. A
	// root whose package is not loaded (a single-directory run) is silent.
	var diags []Diagnostic
	for _, r := range roots {
		if pkg := rootPackage(pkgs, r); pkg != nil && !named[r] {
			diags = append(diags, Diagnostic{
				Pos:      pkg.Fset.Position(pkg.Files[0].Name.Pos()),
				Analyzer: "hotpathalloc",
				Message:  fmt.Sprintf("hot-path root %s names no function in package %s", r, pkg.Path),
			})
		}
	}

	// Breadth-first reachability over name-resolved call edges.
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		imports := fileImports(n.file)
		ast.Inspect(n.decl.Body, func(node ast.Node) bool {
			call, ok := node.(*ast.CallExpr)
			if !ok {
				return true
			}
			for _, callee := range resolve(call, n, imports, byPath, plain, methods) {
				if !reached[callee] {
					callee.root = n.root
					reached[callee] = true
					queue = append(queue, callee)
				}
			}
			return true
		})
	}

	// Scan reachable bodies for allocation sites.
	for _, n := range nodes {
		if !reached[n] {
			continue
		}
		ok := directiveLines(n.pkg.Fset, n.file, "plim:alloc-ok")
		imports := fileImports(n.file)
		ast.Inspect(n.decl.Body, func(node ast.Node) bool {
			msg := allocSite(node, imports)
			if msg == "" {
				return true
			}
			pos := n.pkg.Fset.Position(node.Pos())
			if suppressed(ok, pos) {
				return true
			}
			diags = append(diags, Diagnostic{
				Pos:      pos,
				Analyzer: "hotpathalloc",
				Message: fmt.Sprintf("%s in %s.%s, reachable from hot-path root %s (annotate //plim:alloc-ok <reason> if deliberate)",
					msg, n.pkg.Name, n.name, n.root),
			})
			return true
		})
	}
	return diags
}

// rootPackage returns the loaded package a root spec (pkg.Func or
// pkg.Type.Method) is written against, or nil when none is loaded.
func rootPackage(pkgs []*Package, root string) *Package {
	for _, pkg := range pkgs {
		for _, prefix := range []string{pkg.Path + ".", pkg.Name + "."} {
			if rest, ok := strings.CutPrefix(root, prefix); ok && !strings.Contains(rest, "/") {
				return pkg
			}
		}
	}
	return nil
}

// resolve returns the possible callees of one call expression.
func resolve(call *ast.CallExpr, from *funcNode, imports map[string]string,
	byPath map[string]*Package, plain, methods map[*Package]map[string][]*funcNode) []*funcNode {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return plain[from.pkg][fun.Name]
	case *ast.SelectorExpr:
		if x, ok := fun.X.(*ast.Ident); ok {
			if path, isImport := imports[x.Name]; isImport {
				if pkg, loaded := byPath[path]; loaded {
					return plain[pkg][fun.Sel.Name]
				}
				return nil // stdlib or unloaded package
			}
		}
		// Method call (or a call through a package-level value): resolve by
		// name in this package and in every loaded package this file imports.
		var out []*funcNode
		out = append(out, methods[from.pkg][fun.Sel.Name]...)
		for _, path := range imports {
			if pkg, loaded := byPath[path]; loaded && pkg != from.pkg {
				out = append(out, methods[pkg][fun.Sel.Name]...)
			}
		}
		return out
	}
	return nil
}

// allocSite classifies one AST node as an allocation, returning "" for
// clean nodes.
func allocSite(node ast.Node, imports map[string]string) string {
	switch n := node.(type) {
	case *ast.CompositeLit:
		if _, ok := n.Type.(*ast.MapType); ok {
			return "map literal allocates"
		}
	case *ast.CallExpr:
		switch fun := n.Fun.(type) {
		case *ast.Ident:
			switch fun.Name {
			case "make":
				if len(n.Args) > 0 {
					if _, ok := n.Args[0].(*ast.MapType); ok {
						return "make(map) allocates"
					}
				}
			case "append":
				if len(n.Args) > 0 && freshSlice(n.Args[0]) {
					return "append onto a fresh slice allocates"
				}
			case "any":
				return "conversion to any allocates (boxing)"
			}
		case *ast.SelectorExpr:
			if x, ok := fun.X.(*ast.Ident); ok {
				switch imports[x.Name] {
				case "sort", "container/heap":
					return fmt.Sprintf("%s.%s boxes its argument", x.Name, fun.Sel.Name)
				}
			}
		case *ast.InterfaceType:
			return "conversion to interface{} allocates (boxing)"
		case *ast.ParenExpr:
			if _, ok := fun.X.(*ast.InterfaceType); ok {
				return "conversion to interface{} allocates (boxing)"
			}
		}
	}
	return ""
}

// freshSlice reports whether an append base expression constructs its slice
// on the spot ([]T{...}, []T(nil), make([]T, ...)) rather than naming an
// existing one.
func freshSlice(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.CompositeLit:
		return true
	case *ast.CallExpr:
		if fun, ok := e.Fun.(*ast.Ident); ok && fun.Name == "make" {
			return true
		}
		if _, ok := e.Fun.(*ast.ArrayType); ok {
			return true // []T(nil) conversion
		}
		if p, ok := e.Fun.(*ast.ParenExpr); ok {
			if _, ok := p.X.(*ast.ArrayType); ok {
				return true
			}
		}
	}
	return false
}

func recvTypeName(recv *ast.FieldList) string {
	if len(recv.List) == 0 {
		return ""
	}
	t := recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	// Generic receivers (T[P]) index the identifier.
	if idx, ok := t.(*ast.IndexExpr); ok {
		t = idx.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}
