package directory

import (
	"context"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"strings"
	"testing"
	"time"

	"p2pstream/internal/transport"
)

// noImports fails every import: the checker then treats imported packages
// as opaque and still resolves everything declared in this package, which
// is all the test below asks about.
type noImports struct{}

func (noImports) Import(path string) (*types.Package, error) {
	return nil, errors.New("imports are not resolved")
}

// TestOnlySettleWritesRegistrationFrames enforces the ledger's rule from
// the source: in this package's non-test code, (*ShardedClient).settle is
// the only function that mentions (*Client).Register, RegisterBatch or
// Unregister. Every ordering guarantee of the sharded client — no
// resurrected registration, none lost, withdrawal only after the overlap
// window — rests on there being nowhere else a frame can leave from.
func TestOnlySettleWritesRegistrationFrames(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, f := range pkgs["directory"].Files {
		files = append(files, f)
	}
	info := &types.Info{Selections: make(map[*ast.SelectorExpr]*types.Selection)}
	conf := types.Config{Importer: noImports{}, Error: func(error) {}}
	conf.Check("directory", fset, files, info) // errors: the unresolved imports

	writers := map[string]int{}
	for _, f := range files {
		for _, decl := range f.Decls {
			where := "package level"
			if fn, ok := decl.(*ast.FuncDecl); ok {
				where = fn.Name.Name
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				s := info.Selections[sel]
				if s == nil || s.Kind() == types.FieldVal {
					return true
				}
				recv := s.Recv()
				if p, ok := recv.(*types.Pointer); ok {
					recv = p.Elem()
				}
				named, ok := recv.(*types.Named)
				if !ok || named.Obj().Name() != "Client" {
					return true
				}
				switch sel.Sel.Name {
				case "Register", "RegisterBatch", "Unregister":
					writers[where]++
				}
				return true
			})
		}
	}
	if writers["settle"] == 0 {
		t.Error("settle writes no registration frames: the check resolves nothing")
	}
	for where, n := range writers {
		if where != "settle" {
			t.Errorf("%s writes %d registration frame(s) outside the ledger's settle", where, n)
		}
	}
}

// TestShardedRegisterRejectsMalformedLease: a registration no server would
// accept never becomes a lease — a refresh sends every lease of one shard
// in a single batch, which the server abandons at its first bad entry.
func TestShardedRegisterRejectsMalformedLease(t *testing.T) {
	ctx := context.Background()
	f := newShardFixture(t, 1)
	c := f.client(1)
	for _, bad := range []transport.Register{
		{Addr: "x:9", Class: 1},
		{ID: "x", Class: 1},
		{ID: "x", Addr: "x:9", Class: 99},
	} {
		if err := c.Register(ctx, bad); err == nil {
			t.Errorf("malformed lease %+v accepted", bad)
		}
	}
	if err := c.Register(ctx, reg("sup-ok")); err != nil {
		t.Fatal(err)
	}
	before := f.shards[0].Stats().Refreshes
	f.clk.Sleep(25 * time.Millisecond) // two lease periods
	if after := f.shards[0].Stats().Refreshes; after == before {
		t.Error("the good lease stopped refreshing")
	}
	if f.shards[0].Len() != 1 {
		t.Errorf("shard holds %d registrations, want 1", f.shards[0].Len())
	}
}
