package nvmeof

import (
	"strings"
	"testing"

	"github.com/nvme-cr/nvmecr/internal/model"
)

func TestAdminNamespaceLifecycle(t *testing.T) {
	tgt := NewTargetWithCapacity(16 * model.MB)
	addr, err := tgt.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tgt.Close()

	admin := dialOne(t, addr, 0, PoolConfig{})

	// Create two namespaces.
	ns1, err := admin.CreateNamespace(4 * model.MB)
	if err != nil {
		t.Fatal(err)
	}
	ns2, err := admin.CreateNamespace(8 * model.MB)
	if err != nil {
		t.Fatal(err)
	}
	if ns1 == ns2 {
		t.Fatal("duplicate NSIDs issued")
	}
	// List shows both.
	list, err := admin.ListNamespaces()
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 {
		t.Fatalf("list = %+v", list)
	}
	sizes := map[uint32]int64{}
	for _, e := range list {
		sizes[e.NSID] = e.Size
	}
	if sizes[ns1] != 4*model.MB || sizes[ns2] != 8*model.MB {
		t.Errorf("sizes = %v", sizes)
	}

	// Capacity enforcement: only 4 MB left.
	if _, err := admin.CreateNamespace(8 * model.MB); err == nil {
		t.Error("over-capacity namespace accepted")
	}

	// IO on a freshly created namespace works.
	h := dialOne(t, addr, ns1, PoolConfig{})
	if err := h.WriteAt(0, []byte("granted")); err != nil {
		t.Fatal(err)
	}

	// Delete ns1: its queue pairs see errors, its space is reclaimed.
	if err := admin.DeleteNamespace(ns1); err != nil {
		t.Fatal(err)
	}
	if err := h.WriteAt(0, []byte("zombie")); err == nil {
		t.Error("write to deleted namespace accepted")
	}
	h.Close()
	if _, err := admin.CreateNamespace(8 * model.MB); err != nil {
		t.Errorf("reclaimed space not reusable: %v", err)
	}
	if err := admin.DeleteNamespace(9999); err == nil {
		t.Error("delete of unknown namespace accepted")
	}
	// Bad size.
	if _, err := admin.CreateNamespace(0); err == nil {
		t.Error("zero-size namespace accepted")
	}
}

// TestIOQueueCannotDoAdmin is the other direction of the admin/IO
// separation: a namespace-bound queue pair must not carry the
// namespace-management command set (an admin pool is one dialed with
// NSID 0).
func TestIOQueueCannotDoAdmin(t *testing.T) {
	tgt := NewTarget()
	if err := tgt.AddNamespace(1, NewMemNamespace(model.MB)); err != nil {
		t.Fatal(err)
	}
	addr, err := tgt.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tgt.Close()
	h := dialOne(t, addr, 1, PoolConfig{})
	if _, err := h.CreateNamespace(model.MB); err == nil {
		t.Error("CREATE-NS on I/O queue pair accepted")
	} else if want := statusText(StatusWrongQueue); !strings.Contains(err.Error(), want) {
		t.Errorf("CREATE-NS rejection = %v, want %q", err, want)
	}
	if err := h.DeleteNamespace(1); err == nil {
		t.Error("DELETE-NS on I/O queue pair accepted")
	}
	if _, err := h.ListNamespaces(); err == nil {
		t.Error("LIST-NS on I/O queue pair accepted")
	}
	// The namespace must be untouched and the queue pair still usable.
	if err := h.WriteAt(0, []byte("still-works")); err != nil {
		t.Errorf("I/O after rejected admin commands: %v", err)
	}
	if _, ok := tgt.namespaces[1]; !ok {
		t.Error("namespace deleted through an I/O queue pair")
	}
}

func TestAdminQueueCannotDoIO(t *testing.T) {
	tgt := NewTarget()
	addr, err := tgt.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tgt.Close()
	admin := dialOne(t, addr, 0, PoolConfig{})
	if err := admin.WriteAt(0, []byte("x")); err == nil {
		t.Error("IO on admin queue pair accepted")
	}
	if _, err := admin.ReadAt(0, 4); err == nil {
		t.Error("read on admin queue pair accepted")
	}
}

func TestSchedulerStyleRemoteGrant(t *testing.T) {
	// A scheduler's namespace-per-job grant against a real remote target:
	// grant a namespace, run a microfs-style workload region through a
	// data queue pair, release it.
	tgt := NewTargetWithCapacity(64 * model.MB)
	addr, err := tgt.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tgt.Close()
	admin := dialOne(t, addr, 0, PoolConfig{})

	for job := 0; job < 3; job++ {
		nsid, err := admin.CreateNamespace(48 * model.MB)
		if err != nil {
			t.Fatalf("job %d grant: %v", job, err)
		}
		h := dialOne(t, addr, nsid, PoolConfig{})
		if err := h.WriteAt(1024, []byte("job data")); err != nil {
			t.Fatal(err)
		}
		h.Close()
		if err := admin.DeleteNamespace(nsid); err != nil {
			t.Fatalf("job %d release: %v", job, err)
		}
	}
}
