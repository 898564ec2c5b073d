package chordnet

import (
	"go/ast"
	"go/parser"
	"go/token"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestPureCoresStayPure enforces the split from the source. The files
// holding ring and registry import nothing that could block, lock or tell
// the time — they stay values a seeded test can drive ten thousand
// schedules through — and a registration record leaves for another member
// from exactly two functions of the shell: route (one record, to the owner
// of its position) and pushReplicas (an owner's primary range, to its K
// successors). A third way to move a record has nowhere to go.
func TestPureCoresStayPure(t *testing.T) {
	fset := token.NewFileSet()
	banned := map[string]bool{
		"sync": true, "sync/atomic": true, "context": true, "net": true, "time": true,
		"p2pstream/internal/clock": true, "p2pstream/internal/netx": true,
	}
	for _, name := range []string{"ring.go", "registry.go"} {
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		declares := false
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			declares = declares || ok && ts.Name.Name == strings.TrimSuffix(name, ".go")
			return true
		})
		if !declares {
			t.Errorf("%s does not declare the type it is named for — the check resolves nothing", name)
		}
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); banned[path] {
				t.Errorf("%s imports %s: the core must stay a value with no lock, clock or connection", name, path)
			}
		}
	}

	pkgs, err := parser.ParseDir(fset, ".", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var senders []string
	for name, f := range pkgs["chordnet"].Files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			ast.Inspect(fn, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if ok && sel.Sel.Name == "KindChordReplicate" {
					senders = append(senders, fn.Name.Name)
				}
				return true
			})
		}
	}
	sort.Strings(senders)
	// serve names the kind once more, as the case that receives it.
	if got, want := strings.Join(senders, " "), "pushReplicas route serve"; got != want {
		t.Errorf("KindChordReplicate is named in [%s], want [%s]: records move by route and pushReplicas only", got, want)
	}
}
