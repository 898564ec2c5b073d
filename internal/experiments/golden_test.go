package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"maps"
	"slices"
	"testing"
)

// reportDigest is SHA-256 over a report's rendered Text and every CSV file,
// name and contents, in name order: the bytes a reader of the artifacts sees.
func reportDigest(rep *Report) string {
	h := sha256.New()
	h.Write([]byte(rep.Text))
	for _, name := range slices.Sorted(maps.Keys(rep.CSV)) {
		h.Write([]byte{0})
		h.Write([]byte(name))
		h.Write([]byte{0})
		h.Write([]byte(rep.CSV[name]))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenReports are the digests of every "all-ext" report at the tiny config,
// recorded at commit 43f1311, before the two artifact commands were merged
// into one and every simulation was routed through one cached run.
var goldenReports = map[string]string{
	"fig1":            "985b37040329e3f16e8cea5ea993c884b5232c3a9db503de4e5658ed8c16c983",
	"fig3":            "4941fd011009eb32ff308fabaf40a78842dd544a78a33f6205889580229b9204",
	"fig4":            "d1f6e9fb3987cdef9990bd53e48ec086089c4984c055cc8a179da3b46439fc01",
	"fig5":            "5ab4b3b3f41149b6083c141fd722df671f792f1b72afedaae7fe939430a01db0",
	"fig6":            "150003ad0dfbbc557b6da2f708e0331d306656091feb4ad2466025181fcb9fd6",
	"table1":          "14615793ffb9a80c902bdcba0ad7e04f03ced0524ef1ba80d58a4eb8e314a7cf",
	"fig7":            "bbc9214cc35de6f09b60e9ea20337f36be545115ecc7520837c53382e3e8952c",
	"fig8a":           "f4119715454a11802b0cf932c2a7421532b18e1cfa5d9ccdf70c1ffc5108025b",
	"fig8b":           "0bb1f24cfba2d1a38e411ce2609a3503f647942cb3c0eb781e960b7a45dca1e1",
	"fig9":            "a8dd16bfd63f3f24115507dbd00bbc3155caa4f116e83efc181e5807917e33d4",
	"ablation-assign": "96e82a71a7986af1defb4e888d7c22edd0199c1e05859484d38aa0e15e5a7140",
	"ablation-down":   "2dd38f22bd0756f01eb09c082406291e7a89aadaae8464d90fde30754094fa4c",
	"ablation-lookup": "5ca3458615a5c806480cc6d614714ad598809afa8acf45a391810e7b9bb7de4c",
	"replication":     "28477d400b620ed08136ec9900e827f49693a0704838e08d06a72bd4db62246e",
}

// TestReportDigests pins every rendered artifact byte for byte: a change to
// how reports are dispatched, cached or configured must not move one.
func TestReportDigests(t *testing.T) {
	reports, err := NewRunner(tiny).Run("all-ext")
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != len(goldenReports) {
		t.Errorf("%d reports, want %d", len(reports), len(goldenReports))
	}
	for _, rep := range reports {
		if got, want := reportDigest(rep), goldenReports[rep.ID]; got != want {
			t.Errorf("%s digest %s, want %s", rep.ID, got, want)
		}
	}
}
