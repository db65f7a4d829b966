package nvmecr

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"github.com/nvme-cr/nvmecr/internal/model"
	"github.com/nvme-cr/nvmecr/internal/vfs"
)

func TestJobQuickstart(t *testing.T) {
	job, err := NewJob(JobConfig{Ranks: 16})
	if err != nil {
		t.Fatal(err)
	}
	elapsed, err := job.Run(func(ctx *RankCtx) error {
		f, err := ctx.FS.Open(ctx.Proc, "/state.dat", vfs.O_WRONLY|vfs.O_CREATE|vfs.O_EXCL, 0o644)
		if err != nil {
			return err
		}
		if _, err := f.WriteN(ctx.Proc, 8*model.MB); err != nil {
			return err
		}
		if err := f.Fsync(ctx.Proc); err != nil {
			return err
		}
		return f.Close(ctx.Proc)
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed <= 0 {
		t.Error("job cost no virtual time")
	}
}

func TestJobValidation(t *testing.T) {
	if _, err := NewJob(JobConfig{}); err == nil {
		t.Error("zero ranks accepted")
	}
	if _, err := NewJob(JobConfig{Ranks: 1 << 20}); err == nil {
		t.Error("oversized job accepted")
	}
}

func TestJobRankErrorSurfaces(t *testing.T) {
	job, err := NewJob(JobConfig{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	_, err = job.Run(func(ctx *RankCtx) error {
		if ctx.Rank.ID() == 2 {
			return fmt.Errorf("injected failure")
		}
		return nil
	})
	if err == nil {
		t.Fatal("rank error swallowed")
	}
}

func TestJobCaptureReadBack(t *testing.T) {
	job, err := NewJob(JobConfig{Ranks: 4, Capture: true})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("verify"), 10000)
	_, err = job.Run(func(ctx *RankCtx) error {
		p := ctx.Proc
		f, err := ctx.FS.Open(p, "/v.dat", vfs.O_WRONLY|vfs.O_CREATE|vfs.O_EXCL, 0o644)
		if err != nil {
			return err
		}
		if _, err := f.Write(p, payload); err != nil {
			return err
		}
		if err := f.Close(p); err != nil {
			return err
		}
		g, err := ctx.FS.Open(p, "/v.dat", vfs.O_RDONLY, 0)
		if err != nil {
			return err
		}
		buf := make([]byte, len(payload))
		n, err := g.Read(p, buf)
		if err != nil {
			return err
		}
		if n != len(payload) || !bytes.Equal(buf, payload) {
			return fmt.Errorf("rank %d: payload mismatch", ctx.Rank.ID())
		}
		return g.Close(p)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestExperimentsListed(t *testing.T) {
	ids := Experiments()
	if len(ids) != 15 {
		t.Errorf("Experiments() = %v, want 15 entries", ids)
	}
	tab, err := RunExperiment("fig7a", ExperimentOptions{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if tab.ID != "fig7a" || len(tab.Rows) == 0 {
		t.Errorf("RunExperiment returned %+v", tab)
	}
}

func TestTCPFacade(t *testing.T) {
	tgt := NewTarget()
	if err := tgt.AddNamespace(1, NewMemNamespace(1*model.MB)); err != nil {
		t.Fatal(err)
	}
	addr, err := tgt.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tgt.Close()
	h, err := DialTarget(addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if err := h.WriteAt(0, []byte("facade")); err != nil {
		t.Fatal(err)
	}
	got, err := h.ReadAt(0, 6)
	if err != nil || string(got) != "facade" {
		t.Fatalf("ReadAt = %q, %v", got, err)
	}
	// Single-QP dial and pooled dial both satisfy Queue and report
	// through the same snapshot surface.
	var q Queue = h
	snaps := q.Snapshot()
	if len(snaps) != 1 || snaps[0].Commands == 0 {
		t.Fatalf("Snapshot() = %+v, want one active queue pair", snaps)
	}
	pool, err := DialTargetPool(addr, 1, PoolConfig{QueuePairs: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if err := pool.WriteAt(64, []byte("pooled")); err != nil {
		t.Fatal(err)
	}
	if got := len(pool.Snapshot()); got != 2 {
		t.Fatalf("pool Snapshot() has %d entries, want 2", got)
	}
	var sb strings.Builder
	if err := pool.Telemetry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "nvmecr_qp_commands_total") {
		t.Error("pool registry exposition missing per-QP command counters")
	}
	if tgt.Snapshot().Commands == 0 {
		t.Error("target snapshot counted no commands")
	}
}

func TestDefaultOptionsFacade(t *testing.T) {
	o := DefaultOptions()
	if !o.IsDefaulted() || o.Mode != RemoteSPDK || !o.Background {
		t.Fatalf("DefaultOptions() = %+v", o)
	}
	// A job built from DefaultOptions with one field changed keeps that
	// field (the zero-value rescue in NewJob must not overwrite it).
	o.Background = false
	job, err := NewJob(JobConfig{Ranks: 2, Options: o})
	if err != nil {
		t.Fatal(err)
	}
	if job.Runtime.Options().Background {
		t.Error("NewJob overwrote an explicitly defaulted Options value")
	}
}
