package harness

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// quick runs every experiment in Quick mode; individual tests below
// assert the paper's qualitative shapes on the quick-scale outputs.

func runQuick(t *testing.T, id string) *Table {
	t.Helper()
	tab, err := Run(id, Options{Quick: true})
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if len(tab.Rows) == 0 {
		t.Fatalf("%s: empty table", id)
	}
	return tab
}

// cell parses a table cell as float.
func cell(t *testing.T, tab *Table, row, col int) float64 {
	t.Helper()
	s := tab.Rows[row][col]
	s = strings.TrimSuffix(strings.TrimPrefix(s, "+"), "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("%s row %d col %d: %q not a number", tab.ID, row, col, tab.Rows[row][col])
	}
	return v
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"extfaults", "extmt", "extmtbf", "extn1", "fig1", "fig7a", "fig7b", "fig7c", "fig7d", "fig8a", "fig8b", "fig9strong", "fig9weak", "tab1", "tab2"}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("IDs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("IDs = %v, want %v", got, want)
		}
	}
	if _, err := Run("nope", Options{}); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestFig1GlusterBeatsOrange(t *testing.T) {
	tab := runQuick(t, "fig1")
	last := len(tab.Rows) - 1
	ofs := cell(t, tab, last, 1)
	gfs := cell(t, tab, last, 2)
	peak := cell(t, tab, last, 3)
	if gfs <= ofs {
		t.Errorf("GlusterFS (%v) should outperform OrangeFS (%v)", gfs, ofs)
	}
	if ofs >= peak || gfs >= peak {
		t.Errorf("baselines (%v, %v) must stay under hardware peak %v", ofs, gfs, peak)
	}
}

func TestFig7a32KOptimal(t *testing.T) {
	tab := runQuick(t, "fig7a")
	var t4k, t32k, t1m float64
	for i, row := range tab.Rows {
		switch row[0] {
		case "4K":
			t4k = cell(t, tab, i, 1)
		case "32K":
			t32k = cell(t, tab, i, 1)
		case "1M":
			t1m = cell(t, tab, i, 1)
		}
	}
	if t32k >= t4k {
		t.Errorf("32K (%v) should beat 4K (%v)", t32k, t4k)
	}
	if t32k >= t1m {
		t.Errorf("32K (%v) should beat 1M (%v)", t32k, t1m)
	}
}

func TestFig7bNVMeCRBalanced(t *testing.T) {
	tab := runQuick(t, "fig7b")
	for i := range tab.Rows {
		cr := cell(t, tab, i, 1)
		if cr > 0.01 {
			t.Errorf("row %d: NVMe-CR CoV = %v, want ~0", i, cr)
		}
	}
	// GlusterFS most imbalanced at the lowest process count.
	gfsLow := cell(t, tab, 0, 3)
	if gfsLow < 0.05 {
		t.Errorf("GlusterFS CoV at low concurrency = %v, expected visible imbalance", gfsLow)
	}
}

func TestFig7cOrdering(t *testing.T) {
	tab := runQuick(t, "fig7c")
	last := len(tab.Rows) - 1
	cr := cell(t, tab, last, 1)
	spdk := cell(t, tab, last, 2)
	xfs := cell(t, tab, last, 3)
	ext4 := cell(t, tab, last, 4)
	if cr > spdk*1.1 {
		t.Errorf("NVMe-CR (%v) should be within 10%% of raw SPDK (%v)", cr, spdk)
	}
	if xfs <= cr {
		t.Errorf("XFS (%v) should be slower than NVMe-CR (%v)", xfs, cr)
	}
	if ext4 <= xfs {
		t.Errorf("ext4 (%v) should be slower than XFS (%v)", ext4, xfs)
	}
	// Kernel fractions: CR low, kernel filesystems high.
	parts := strings.Split(tab.Rows[last][5], "/")
	if len(parts) != 3 {
		t.Fatalf("kernel%% cell = %q", tab.Rows[last][5])
	}
	crK, _ := strconv.ParseFloat(parts[0], 64)
	xfsK, _ := strconv.ParseFloat(parts[1], 64)
	ext4K, _ := strconv.ParseFloat(parts[2], 64)
	if crK > 25 {
		t.Errorf("NVMe-CR kernel%% = %v, want low", crK)
	}
	if xfsK < 50 || ext4K < 50 {
		t.Errorf("kernel FS kernel%% = %v/%v, want majority", xfsK, ext4K)
	}
}

func TestFig7dMonotoneImprovement(t *testing.T) {
	tab := runQuick(t, "fig7d")
	for i := range tab.Rows {
		base := cell(t, tab, i, 1)
		ns := cell(t, tab, i, 2)
		prov := cell(t, tab, i, 3)
		hb := cell(t, tab, i, 4)
		if !(base > ns && ns > prov && prov > hb) {
			t.Errorf("row %d: times %v %v %v %v not monotonically improving", i, base, ns, prov, hb)
		}
	}
}

func TestFig8aLowOverhead(t *testing.T) {
	tab := runQuick(t, "fig8a")
	for i := range tab.Rows {
		overhead := cell(t, tab, i, 3)
		if overhead > 5.0 {
			t.Errorf("row %d: NVMf overhead = %v%%, want < 5%%", i, overhead)
		}
		remote := cell(t, tab, i, 2)
		crail := cell(t, tab, i, 4)
		if crail <= remote {
			t.Errorf("row %d: Crail (%v) should be slower than NVMe-CR remote (%v)", i, crail, remote)
		}
	}
}

func TestFig8bNVMeCRScalesCreates(t *testing.T) {
	tab := runQuick(t, "fig8b")
	last := len(tab.Rows) - 1
	crOfs := cell(t, tab, last, 4)
	crGfs := cell(t, tab, last, 5)
	// Quick scale allocates only 2 SSDs at 112 ranks, so the ratio is
	// far below the full-scale 7x; it must still clearly exceed 1.
	if crOfs < 1.3 {
		t.Errorf("NVMe-CR/OrangeFS create ratio = %v, want > 1.3 at top quick scale", crOfs)
	}
	if crGfs <= crOfs {
		t.Errorf("GlusterFS ratio (%v) should exceed OrangeFS ratio (%v)", crGfs, crOfs)
	}
	// NVMe-CR creates scale with process count.
	first := cell(t, tab, 0, 1)
	top := cell(t, tab, last, 1)
	if top <= first {
		t.Errorf("NVMe-CR create rate did not scale: %v -> %v", first, top)
	}
}

func TestFig9WeakEfficiencyShape(t *testing.T) {
	tab := runQuick(t, "fig9weak")
	last := len(tab.Rows) - 1
	cr := cell(t, tab, last, 1)
	ofs := cell(t, tab, last, 2)
	gfs := cell(t, tab, last, 3)
	if cr < 0.8 {
		t.Errorf("NVMe-CR checkpoint efficiency = %v, want high", cr)
	}
	if cr <= gfs || gfs <= ofs {
		t.Errorf("efficiency ordering broken: cr=%v gfs=%v ofs=%v", cr, gfs, ofs)
	}
	recCR := cell(t, tab, last, 4)
	if recCR < 0.8 {
		t.Errorf("NVMe-CR recovery efficiency = %v, want high", recCR)
	}
}

func TestFig9StrongRuns(t *testing.T) {
	tab := runQuick(t, "fig9strong")
	last := len(tab.Rows) - 1
	cr := cell(t, tab, last, 1)
	ofs := cell(t, tab, last, 2)
	if cr <= ofs {
		t.Errorf("strong scaling: NVMe-CR (%v) should beat OrangeFS (%v)", cr, ofs)
	}
}

func TestTab1Ordering(t *testing.T) {
	tab := runQuick(t, "tab1")
	byName := map[string]float64{}
	for i, row := range tab.Rows {
		byName[row[0]] = cell(t, tab, i, 2)
	}
	if byName["orangefs"] <= byName["glusterfs"] {
		t.Errorf("OrangeFS meta (%v MB) should exceed GlusterFS (%v MB)",
			byName["orangefs"], byName["glusterfs"])
	}
}

func TestTab2Shapes(t *testing.T) {
	tab := runQuick(t, "tab2")
	get := func(name string, col int) float64 {
		for i, row := range tab.Rows {
			if row[0] == name {
				return cell(t, tab, i, col)
			}
		}
		t.Fatalf("row %q missing", name)
		return 0
	}
	ofsT, gfsT, crT := get("orangefs", 1), get("glusterfs", 1), get("nvme-cr", 1)
	if !(ofsT > gfsT && gfsT > crT) {
		t.Errorf("ckpt times %v/%v/%v not in paper order (ofs > gfs > cr)", ofsT, gfsT, crT)
	}
	ofsP, gfsP, crP := get("orangefs", 3), get("glusterfs", 3), get("nvme-cr", 3)
	if !(crP > gfsP && gfsP > ofsP) {
		t.Errorf("progress rates %v/%v/%v not in paper order (cr > gfs > ofs)", ofsP, gfsP, crP)
	}
	withCo := get("nvme-cr", 2)
	withoutCo := get("nvme-cr (no coalescing)", 2)
	if withoutCo < withCo {
		t.Errorf("recovery without coalescing (%v) should not beat coalescing (%v)", withoutCo, withCo)
	}
}

func TestExtN1PLFSBeatsSharedFile(t *testing.T) {
	tab := runQuick(t, "extn1")
	last := len(tab.Rows) - 1
	speedup := cell(t, tab, last, 3)
	if speedup < 3 {
		t.Errorf("N-1 via PLFS speedup = %v, want well above the single-server ceiling", speedup)
	}
	gfs := cell(t, tab, last, 2)
	if gfs > 2.5 {
		t.Errorf("GlusterFS shared-file bandwidth = %v GB/s, should be pinned near one server's ceiling", gfs)
	}
}

func TestExtMTBFOrdering(t *testing.T) {
	tab := runQuick(t, "extmtbf")
	// At the shortest interval (checkpoint cost matters most), the
	// cheaper checkpointer keeps at least as much useful work.
	cr := cell(t, tab, 0, 1)
	gfs := cell(t, tab, 0, 2)
	ofs := cell(t, tab, 0, 3)
	if cr < gfs || cr < ofs {
		t.Errorf("efficiency at 2m: cr=%v gfs=%v ofs=%v — NVMe-CR should lead", cr, gfs, ofs)
	}
	// Efficiency declines as intervals stretch past the MTBF sweet
	// spot (more lost work per failure).
	first := cell(t, tab, 0, 1)
	last := cell(t, tab, len(tab.Rows)-2, 1)
	if last >= first {
		t.Errorf("efficiency should fall at 40m intervals: %v -> %v", first, last)
	}
}

func TestTablePrint(t *testing.T) {
	tab := &Table{ID: "x", Title: "demo", PaperNote: "note", Header: []string{"a", "b"}}
	tab.AddRow("1", "2")
	var buf bytes.Buffer
	tab.Print(&buf)
	out := buf.String()
	for _, want := range []string{"demo", "note", "a", "1"} {
		if !strings.Contains(out, want) {
			t.Errorf("printed table missing %q:\n%s", want, out)
		}
	}
}

func TestExtMTIsolation(t *testing.T) {
	// The acceptance pin for the multi-tenant namespace: one harness
	// run, two tenants on different backends under one vfs.Namespace.
	// A quota breach on the memory mount returns ErrNoSpace (the runner
	// fails otherwise) while the striped-microfs tenant's traffic and
	// nvmecr_mount_* series stay clean.
	tab := runQuick(t, "extmt")
	if len(tab.Rows) != 2 {
		t.Fatalf("extmt rows = %d, want 2 tenants", len(tab.Rows))
	}
	byName := map[string][]string{}
	for _, row := range tab.Rows {
		byName[row[0]] = row
	}
	alpha, beta := byName["alpha"], byName["beta"]
	if alpha == nil || beta == nil {
		t.Fatalf("missing tenant rows: %v", tab.Rows)
	}
	// Columns: tenant, backend, opens, bytes-written, quota-rejections,
	// breach.
	if alpha[4] != "0" || alpha[5] != "false" {
		t.Errorf("alpha saw quota pressure: %v", alpha)
	}
	if beta[4] == "0" || beta[5] != "true" {
		t.Errorf("beta should have breached its quota: %v", beta)
	}
	if aw := cell(t, tab, 0, 3); aw <= 0 {
		t.Errorf("alpha wrote no bytes: %v", alpha)
	}
}
