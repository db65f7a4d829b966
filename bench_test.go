package nvmecr

// One benchmark per table and figure in the paper's evaluation, plus
// ablation benches for the design choices DESIGN.md calls out. Each
// macro benchmark regenerates its artifact through the harness at quick
// scale (the nvmecr-bench binary runs the same experiments at full
// paper scale) and reports the headline quantity as a custom metric.

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"github.com/nvme-cr/nvmecr/internal/harness"
	"github.com/nvme-cr/nvmecr/internal/model"
	"github.com/nvme-cr/nvmecr/internal/vfs"
)

// runExperiment drives one harness experiment per iteration.
func runExperiment(b *testing.B, id string) *harness.Table {
	b.Helper()
	var tab *harness.Table
	var err error
	for i := 0; i < b.N; i++ {
		tab, err = harness.Run(id, harness.Options{Quick: true})
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
	return tab
}

func cellFloat(b *testing.B, tab *harness.Table, row, col int) float64 {
	b.Helper()
	s := strings.TrimSuffix(strings.TrimPrefix(tab.Rows[row][col], "+"), "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		b.Fatalf("cell %d,%d = %q", row, col, tab.Rows[row][col])
	}
	return v
}

// BenchmarkFig1WeakScalingBandwidth regenerates Figure 1.
func BenchmarkFig1WeakScalingBandwidth(b *testing.B) {
	tab := runExperiment(b, "fig1")
	last := len(tab.Rows) - 1
	b.ReportMetric(cellFloat(b, tab, last, 1), "orangefs-GB/s")
	b.ReportMetric(cellFloat(b, tab, last, 2), "glusterfs-GB/s")
}

// BenchmarkFig7aHugeblockSweep regenerates Figure 7a.
func BenchmarkFig7aHugeblockSweep(b *testing.B) {
	tab := runExperiment(b, "fig7a")
	for i, row := range tab.Rows {
		if row[0] == "4K" {
			b.ReportMetric(cellFloat(b, tab, i, 2), "pct-worse-4K-vs-32K")
		}
	}
}

// BenchmarkFig7bLoadImbalance regenerates Figure 7b.
func BenchmarkFig7bLoadImbalance(b *testing.B) {
	tab := runExperiment(b, "fig7b")
	b.ReportMetric(cellFloat(b, tab, 0, 3), "glusterfs-CoV-low-procs")
	b.ReportMetric(cellFloat(b, tab, 0, 1), "nvmecr-CoV")
}

// BenchmarkFig7cDirectAccess regenerates Figure 7c.
func BenchmarkFig7cDirectAccess(b *testing.B) {
	tab := runExperiment(b, "fig7c")
	last := len(tab.Rows) - 1
	cr := cellFloat(b, tab, last, 1)
	xfs := cellFloat(b, tab, last, 3)
	ext4 := cellFloat(b, tab, last, 4)
	b.ReportMetric((xfs-cr)/xfs*100, "improve-vs-xfs-%")
	b.ReportMetric((ext4-cr)/ext4*100, "improve-vs-ext4-%")
}

// BenchmarkFig7dDrilldown regenerates Figure 7d.
func BenchmarkFig7dDrilldown(b *testing.B) {
	tab := runExperiment(b, "fig7d")
	last := len(tab.Rows) - 1
	base := cellFloat(b, tab, last, 1)
	full := cellFloat(b, tab, last, 4)
	b.ReportMetric((base-full)/base*100, "total-improvement-%")
}

// BenchmarkFig8aNVMfOverhead regenerates Figure 8a.
func BenchmarkFig8aNVMfOverhead(b *testing.B) {
	tab := runExperiment(b, "fig8a")
	last := len(tab.Rows) - 1
	b.ReportMetric(cellFloat(b, tab, last, 3), "nvmf-overhead-%")
}

// BenchmarkFig8bCreateThroughput regenerates Figure 8b.
func BenchmarkFig8bCreateThroughput(b *testing.B) {
	tab := runExperiment(b, "fig8b")
	last := len(tab.Rows) - 1
	b.ReportMetric(cellFloat(b, tab, last, 4), "x-vs-orangefs")
	b.ReportMetric(cellFloat(b, tab, last, 5), "x-vs-glusterfs")
}

// BenchmarkFig9StrongScaling regenerates Figures 9a/9b.
func BenchmarkFig9StrongScaling(b *testing.B) {
	tab := runExperiment(b, "fig9strong")
	last := len(tab.Rows) - 1
	b.ReportMetric(cellFloat(b, tab, last, 1), "nvmecr-ckpt-efficiency")
}

// BenchmarkFig9WeakScaling regenerates Figures 9c/9d.
func BenchmarkFig9WeakScaling(b *testing.B) {
	tab := runExperiment(b, "fig9weak")
	last := len(tab.Rows) - 1
	b.ReportMetric(cellFloat(b, tab, last, 1), "nvmecr-ckpt-efficiency")
	b.ReportMetric(cellFloat(b, tab, last, 4), "nvmecr-rec-efficiency")
}

// BenchmarkTab1MetadataOverhead regenerates Table I.
func BenchmarkTab1MetadataOverhead(b *testing.B) {
	tab := runExperiment(b, "tab1")
	for i, row := range tab.Rows {
		if row[0] == "nvme-cr" {
			b.ReportMetric(cellFloat(b, tab, i, 2), "nvmecr-meta-MB")
		}
	}
}

// BenchmarkTab2MultiLevel regenerates Table II.
func BenchmarkTab2MultiLevel(b *testing.B) {
	tab := runExperiment(b, "tab2")
	for i, row := range tab.Rows {
		if row[0] == "nvme-cr" {
			b.ReportMetric(cellFloat(b, tab, i, 3), "nvmecr-progress-rate")
		}
	}
}

// Ablation benches (DESIGN.md §5): single-knob comparisons on the public
// Job API.

// jobDump runs one checkpoint dump (chunked write calls, so per-op
// software costs are visible) and returns the aggregate bandwidth plus
// the jobs' runtime for follow-up inspection.
func jobDump(b *testing.B, opts Options, ranks int, perRank, chunk int64) (float64, *Job) {
	b.Helper()
	job, err := NewJob(JobConfig{Ranks: ranks, Options: opts})
	if err != nil {
		b.Fatal(err)
	}
	elapsed, err := job.Run(func(ctx *RankCtx) error {
		f, err := ctx.FS.Open(ctx.Proc, fmt.Sprintf("/r%04d", ctx.Rank.ID()), vfs.O_WRONLY|vfs.O_CREATE|vfs.O_EXCL, 0o644)
		if err != nil {
			return err
		}
		for off := int64(0); off < perRank; off += chunk {
			if _, err := f.WriteN(ctx.Proc, chunk); err != nil {
				return err
			}
		}
		if err := f.Fsync(ctx.Proc); err != nil {
			return err
		}
		return f.Close(ctx.Proc)
	})
	if err != nil {
		b.Fatal(err)
	}
	return float64(int64(ranks)*perRank) / elapsed.Seconds(), job
}

// BenchmarkAblationCoalescing compares log pressure with and without log
// record coalescing: the records a recovery must replay shrink by orders
// of magnitude with coalescing (the paper's instant-recovery claim).
func BenchmarkAblationCoalescing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		with := Options{Mode: RemoteSPDK, Features: AllFeatures()}
		without := with
		without.NoCoalesce = true
		_, jobWith := jobDump(b, with, 8, 32*model.MB, 256*model.KB)
		_, jobWithout := jobDump(b, without, 8, 32*model.MB, 256*model.KB)
		recs := func(j *Job) float64 {
			var total int64
			for r := 0; r < 8; r++ {
				total += j.Runtime.Client(r).Log().Records()
			}
			return float64(total)
		}
		b.ReportMetric(recs(jobWith), "log-records-coalescing")
		b.ReportMetric(recs(jobWithout), "log-records-no-coalescing")
	}
}

// BenchmarkAblationProvenance compares compact operation logging against
// physical journaling (small chunked writes make the journal traffic
// visible).
func BenchmarkAblationProvenance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		prov := Options{Mode: RemoteSPDK, Features: AllFeatures()}
		physical := prov
		physical.Features = Features{Hugeblocks: true} // provenance off
		bwProv, _ := jobDump(b, prov, 4, 64*model.MB, 256*model.KB)
		bwPhys, _ := jobDump(b, physical, 4, 64*model.MB, 256*model.KB)
		b.ReportMetric(bwProv/1e9, "GB/s-provenance")
		b.ReportMetric(bwPhys/1e9, "GB/s-physical-journal")
	}
}

// BenchmarkAblationKernelPath compares the userspace NVMe-oF path to the
// kernel nvme_rdma path at small IO, where per-op kernel costs dominate.
func BenchmarkAblationKernelPath(b *testing.B) {
	for i := 0; i < b.N; i++ {
		user := Options{Mode: RemoteSPDK, Features: AllFeatures()}
		kernel := user
		kernel.Mode = RemoteKernel
		bwUser, _ := jobDump(b, user, 4, 16*model.MB, 64*model.KB)
		bwKernel, _ := jobDump(b, kernel, 4, 16*model.MB, 64*model.KB)
		b.ReportMetric(bwUser/1e9, "GB/s-userspace")
		b.ReportMetric(bwKernel/1e9, "GB/s-kernel")
	}
}

// BenchmarkAblationHugeblocks compares 32 KB hugeblocks against 4 KB
// kernel-style blocks on the same workload.
func BenchmarkAblationHugeblocks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		huge := Options{Mode: RemoteSPDK, Features: AllFeatures()}
		small := Options{Mode: RemoteSPDK, Features: Features{Provenance: true}}
		bwHuge, _ := jobDump(b, huge, 8, 64*model.MB, 1*model.MB)
		bwSmall, _ := jobDump(b, small, 8, 64*model.MB, 1*model.MB)
		b.ReportMetric(bwHuge/1e9, "GB/s-32K")
		b.ReportMetric(bwSmall/1e9, "GB/s-4K")
	}
}
