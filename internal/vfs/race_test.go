package vfs

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"github.com/nvme-cr/nvmecr/internal/telemetry"
)

// TestConcurrentMultiTenant hammers one namespace from real goroutines
// — one per tenant mount plus cross-tenant readers — under -race. The
// simulation never runs goroutines concurrently, but the end-to-end
// benchmark's ranks mount, unmount and write through one shared
// namespace from their own goroutines, so the mount table, quota
// counters, and telemetry must be race-clean.
func TestConcurrentMultiTenant(t *testing.T) {
	reg := telemetry.New()
	ns := NewNamespace(reg)
	const tenants = 4
	for i := 0; i < tenants; i++ {
		if _, err := ns.Mount(MountConfig{
			Path:    fmt.Sprintf("/t%d", i),
			Backend: NewMemBackend(),
			Name:    fmt.Sprintf("t%d", i),
			// Tight quotas so rejection counting races too.
			QuotaBytes:  4096,
			QuotaInodes: 32,
		}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	fail := make(chan error, tenants*2)
	for i := 0; i < tenants; i++ {
		i := i
		wg.Add(2)
		// Writer: create/write/unlink churn inside its own mount.
		go func() {
			defer wg.Done()
			for op := 0; op < 200; op++ {
				path := fmt.Sprintf("/t%d/f%02d", i, op%8)
				f, err := ns.Open(nil, path, O_WRONLY|O_CREATE, 0o644)
				if err != nil {
					if errors.Is(err, ErrNoSpace) {
						continue
					}
					fail <- fmt.Errorf("writer %d: open %s: %w", i, path, err)
					return
				}
				if _, err := f.WriteN(nil, 256); err != nil && !errors.Is(err, ErrNoSpace) {
					fail <- fmt.Errorf("writer %d: write %s: %w", i, path, err)
					return
				}
				f.Close(nil)
				if op%8 == 7 {
					if err := ns.Unlink(nil, path); err != nil && !errors.Is(err, ErrNotExist) {
						fail <- fmt.Errorf("writer %d: unlink %s: %w", i, path, err)
						return
					}
				}
			}
		}()
		// Reader: list and stat every tenant, including others'.
		go func() {
			defer wg.Done()
			for op := 0; op < 200; op++ {
				target := fmt.Sprintf("/t%d", (i+op)%tenants)
				entries, err := ns.ReadDir(nil, target)
				if err != nil {
					fail <- fmt.Errorf("reader %d: readdir %s: %w", i, target, err)
					return
				}
				for _, e := range entries {
					// Churn means entries may vanish between list and
					// stat; only unexpected errors count.
					if _, err := ns.Stat(nil, e.Path); err != nil && !errors.Is(err, ErrNotExist) {
						fail <- fmt.Errorf("reader %d: stat %s: %w", i, e.Path, err)
						return
					}
				}
				if _, err := ns.ReadDir(nil, "/"); err != nil {
					fail <- fmt.Errorf("reader %d: readdir /: %w", i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(fail)
	for err := range fail {
		t.Error(err)
	}
	// Quota accounting must balance: usage never negative, never above
	// quota.
	for _, m := range ns.Mounts() {
		b, ino := m.Usage()
		qb, qi := m.Quota()
		if b < 0 || ino < 0 || b > qb || ino > qi {
			t.Errorf("mount %s usage out of range: %d/%d bytes, %d/%d inodes", m.Name(), b, qb, ino, qi)
		}
	}
}
