package scenario

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strings"
	"testing"

	"p2pstream/internal/observe"
)

// TestHarnessCountsOnlyThroughTheTally enforces the counting seam from the
// source: in this package's non-test code the harness struct declares no
// atomic counter but the chord supplier census (a level, not an event
// count), and nothing adapts a closure into an observer — every event
// count is a reading of the one observe.Tally. A new "one more counter"
// has nowhere to go but an event type.
func TestHarnessCountsOnlyThroughTheTally(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	isSel := func(e ast.Expr, pkg, name string) bool {
		sel, ok := e.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != name {
			return false
		}
		id, ok := sel.X.(*ast.Ident)
		return ok && id.Name == pkg
	}
	sawHarness, sawTally := false, false
	for name, f := range pkgs["scenario"].Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if isSel(n.Fun, "observe", "Func") {
					t.Errorf("%s: observe.Func literal at %s — count through the harness tally instead", name, fset.Position(n.Pos()))
				}
			case *ast.TypeSpec:
				st, ok := n.Type.(*ast.StructType)
				if !ok || n.Name.Name != "harness" {
					return true
				}
				sawHarness = true
				for _, field := range st.Fields.List {
					for _, id := range field.Names {
						switch {
						case isSel(field.Type, "observe", "Tally"):
							sawTally = true
						case isSel(field.Type, "atomic", "Int64") && id.Name != "suppliers":
							t.Errorf("harness.%s is a hand-rolled atomic counter; emit an observe.Event and read the tally", id.Name)
						}
					}
				}
			}
			return true
		})
	}
	if !sawHarness || !sawTally {
		t.Errorf("harness struct found: %v, with an observe.Tally field: %v — the check resolves nothing", sawHarness, sawTally)
	}
}

// TestSummaryListsEveryFiredEventType: the events: line needs no per-type
// code, so event types no report field ever carried show up in it.
func TestSummaryListsEveryFiredEventType(t *testing.T) {
	spec, _ := ByName("flash-crowd")
	report, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	served := int64(report.Served())
	if sessions := report.Events.Of(observe.SessionServed).N; sessions < served {
		t.Errorf("%d session-served events for %d served requesters", sessions, served)
	}
	if probes := report.Events.Of(observe.ProbeServed).N; probes < served {
		t.Errorf("%d probe-served events for %d served requesters", probes, served)
	}
	summary := report.Summary()
	for _, want := range []string{"\n  events: ", "probe-served=", "session-served="} {
		if !strings.Contains(summary, want) {
			t.Errorf("summary lacks %q:\n%s", want, summary)
		}
	}
	// Completion-time snapshots are earlier readings of the same tally.
	final := report.Events.Of(observe.SessionServed).N
	for _, n := range report.Nodes {
		if got := n.Events.Of(observe.SessionServed).N; got > final {
			t.Errorf("%s finished at %d session-served events, above the final %d", n.ID, got, final)
		}
	}
}
