package experiments

import (
	"strings"
	"testing"
)

// TestExtensionIDs checks that "all-ext" runs the paper's artifacts, then
// the extensions, each in order.
func TestExtensionIDs(t *testing.T) {
	reports, err := NewRunner(tiny).Run("all-ext")
	if err != nil {
		t.Fatal(err)
	}
	want := append(IDs(), "ablation-assign", "ablation-down", "ablation-lookup", "replication")
	var got []string
	for _, rep := range reports {
		got = append(got, rep.ID)
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("all-ext ran %v, want %v", got, want)
	}
}

func TestAblationAssign(t *testing.T) {
	rep, err := NewRunner(tiny).AblationAssign()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"OTS_p2p (optimal)", "Figure 2 literal round-robin", "contiguous blocks", "100.0"} {
		if !strings.Contains(rep.Text, want) {
			t.Errorf("report missing %q:\n%s", want, rep.Text)
		}
	}
	// The optimal strategy's average row must be listed first and its
	// optimal share must be 100%.
	lines := strings.Split(rep.Text, "\n")
	var otsLine string
	for _, l := range lines {
		if strings.HasPrefix(l, "OTS_p2p") {
			otsLine = l
		}
	}
	if !strings.Contains(otsLine, "100.0") || !strings.Contains(otsLine, " 0 ") {
		t.Errorf("OTS row should show zero worst excess and 100%% optimal: %q", otsLine)
	}
}

func TestAblationDown(t *testing.T) {
	rep, err := NewRunner(tiny).AblationDown()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"down=0%", "down=50%", "Capacity"} {
		if !strings.Contains(rep.Text, want) {
			t.Errorf("report missing %q", want)
		}
	}
	if len(rep.CSV) != 2 {
		t.Errorf("CSV count = %d, want 2", len(rep.CSV))
	}
	// The sweep must actually vary: the healthy and the 50%-down capacity
	// columns of the CSV must differ (this caught a cache-key bug that
	// returned the same run for every down probability).
	csv := rep.CSV["ablation_down_capacity.csv"]
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	last := strings.Split(lines[len(lines)-1], ",")
	if len(last) < 5 {
		t.Fatalf("unexpected CSV row %q", lines[len(lines)-1])
	}
	if last[1] == last[4] {
		t.Errorf("down=0%% and down=50%% final capacity identical (%s): sweep not applied", last[1])
	}
}

func TestAblationLookup(t *testing.T) {
	rep, err := NewRunner(tiny).AblationLookup()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"directory", "chord", "lookup-agnostic"} {
		if !strings.Contains(rep.Text, want) {
			t.Errorf("report missing %q:\n%s", want, rep.Text)
		}
	}
}

func TestReplication(t *testing.T) {
	rep, err := NewRunner(tiny).Replication()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"final capacity", "±", "class ordering"} {
		if !strings.Contains(rep.Text, want) {
			t.Errorf("report missing %q:\n%s", want, rep.Text)
		}
	}
}

func TestRunDispatchesExtensions(t *testing.T) {
	r := NewRunner(tiny)
	runOne(t, r, "ablation-assign")
	if _, err := r.Run("nonsense"); err == nil {
		t.Error("unknown id should fail")
	}
}

// TestAllWithExtensions checks that "all-ext" simulates each distinct config
// once: the extensions reuse the paper's runs where their configs agree
// (down=0%, the directory lookup, the first replica of each policy).
func TestAllWithExtensions(t *testing.T) {
	r := NewRunner(tiny)
	if _, err := r.Run("all-ext"); err != nil {
		t.Fatal(err)
	}
	// Figure 4: 4 runs; Figures 8(a), 8(b) and 9: 3, 4 and 3 more; the
	// down sweep 3, the chord lookup 1 and the other replicas 8.
	if got, want := len(r.cache), 4+3+4+3+3+1+8; got != want {
		t.Errorf("all-ext ran %d simulations, want %d", got, want)
	}
}
