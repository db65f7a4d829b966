package harness

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestQuickTablesGolden renders every experiment's quick-scale table the
// way `nvmecr-bench -quick` prints it, less its "(… wall)" lines, and
// holds the result to testdata/quick.golden byte for byte: a change moves
// a paper figure only by regenerating that file, with the command in
// scripts/verify.sh's comment. Break-demo: with spdk.Plane.Charge deleted,
// microfs on the simulator no longer charges a directory's tail block or
// the conventional journal, and 17 lines move — extfaults' injection
// counts, extn1, fig7a, fig7d, fig9 and tab2 among them, fig8b most:
//
//	quick.golden line 93: got "   112    1048213.12  71389.02  27771.79   14.68   37.74"
//	                     want "   112    127299.27  71389.02  27771.79   1.78    4.58"
func TestQuickTablesGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/quick.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, id := range IDs() {
		tab, err := Run(id, Options{Quick: true})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		tab.Print(&got)
		got.WriteString("\n") // the blank line that follows the wall-time line
	}
	if got.String() == string(want) {
		return
	}
	g, w := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i, diffs := 0, 0; i < max(len(g), len(w)) && diffs < 20; i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			t.Errorf("quick.golden line %d: got %q\n                      want %q", i+1, gl, wl)
			diffs++
		}
	}
}
