// Command ctxcheck enforces the context-first rule of the overlay's
// request/discovery path: every exported function, method or interface
// method with one of the path's verb names must take a context.Context as
// its first parameter. It is the CI tripwire that keeps the API redesign
// from regressing — a new Discovery backend (or a new facade method)
// whose Register/Candidates/Request forgets the context fails the build,
// not the review.
//
// Run from the repository root:
//
//	go run ./tools/ctxcheck
//
// Non-test files of the listed packages are parsed with go/ast (no build
// or type-check needed); violations are printed one per line and the exit
// status is 1 when any exist.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
)

// packages in the request/discovery path, relative to the repo root.
var packages = []string{
	".",
	"internal/node",
	"internal/directory",
	"internal/chordnet",
	"internal/scenario",
	"internal/transport",
}

// verbs are the request/discovery method names that must be context-first
// wherever they are exported: on concrete types, as free functions, and in
// interface declarations.
var verbs = map[string]bool{
	"Request":              true,
	"RequestUntilAdmitted": true,
	"Register":             true,
	"Unregister":           true,
	"Candidates":           true,
	"Lookup":               true,
	"LookupKey":            true,
	"Call":                 true,
	"Seed":                 true, // Overlay.Seed starts + registers a peer
	"Requester":            true, // Overlay.Requester likewise
}

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	var violations []string
	fset := token.NewFileSet()
	for _, pkg := range packages {
		dir := filepath.Join(root, pkg)
		pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ctxcheck: parsing %s: %v\n", dir, err)
			os.Exit(2)
		}
		for _, p := range pkgs {
			for _, f := range p.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					switch d := n.(type) {
					case *ast.FuncDecl:
						if d.Name.IsExported() && verbs[d.Name.Name] && !ctxFirst(d.Type) {
							violations = append(violations, describe(fset, d.Pos(), receiver(d), d.Name.Name))
						}
					case *ast.InterfaceType:
						for _, m := range d.Methods.List {
							ft, ok := m.Type.(*ast.FuncType)
							if !ok || len(m.Names) == 0 {
								continue
							}
							name := m.Names[0]
							if name.IsExported() && verbs[name.Name] && !ctxFirst(ft) {
								violations = append(violations, describe(fset, name.Pos(), "interface", name.Name))
							}
						}
					}
					return true
				})
			}
		}
	}
	if len(violations) > 0 {
		fmt.Fprintln(os.Stderr, "ctxcheck: exported request/discovery methods missing a context.Context first parameter:")
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, "  "+v)
		}
		os.Exit(1)
	}
	fmt.Println("ctxcheck: request/discovery path is context-first")
}

// ctxFirst reports whether the function type's first parameter is
// context.Context (spelled as the context package's qualified name).
func ctxFirst(ft *ast.FuncType) bool {
	if ft.Params == nil || len(ft.Params.List) == 0 {
		return false
	}
	sel, ok := ft.Params.List[0].Type.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && pkg.Name == "context" && sel.Sel.Name == "Context"
}

// receiver renders a method's receiver type name, or "func" for plain
// functions.
func receiver(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return "func"
	}
	t := d.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return "recv"
}

func describe(fset *token.FileSet, pos token.Pos, recv, name string) string {
	return fmt.Sprintf("%s: %s.%s", fset.Position(pos), recv, name)
}
