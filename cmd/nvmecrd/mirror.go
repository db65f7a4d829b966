// Mirror-head mode: with -mirror, nvmecrd also acts as an initiator
// that aggregates remote member targets into one R-way mirrored
// striped plane (RAID-10 shape) and runs the rebalance migration
// plane: on POST /rebalance?child=N a member's stripes are
// re-replicated onto a freshly dialed spare while traffic continues,
// journaled so an interrupted move resumes or rolls back on restart.
// Progress is served on the admin listener at /rebalance and in
// /metrics (nvmecr_rebalance_* series).
package main

import (
	"fmt"
	"io"
	"log"
	"strings"
	"time"

	"github.com/nvme-cr/nvmecr/internal/nvmeof"
	"github.com/nvme-cr/nvmecr/internal/plane"
	"github.com/nvme-cr/nvmecr/internal/rebalance"
	"github.com/nvme-cr/nvmecr/internal/sim"
	"github.com/nvme-cr/nvmecr/internal/telemetry"
)

// mirrorHead is the daemon's initiator-side aggregate: the mirrored
// plane, its migrator, and the member bookkeeping behind both.
type mirrorHead struct {
	plane    *nvmeof.StripedPlane
	migrator *rebalance.Migrator
	journal  *rebalance.Journal
}

// dialMirrorMember connects one member target and wraps it as a plane
// partition covering [0, size). The pool rides the plane so Close
// tears the sockets down with it.
func dialMirrorMember(addr string, size int64) (plane.Plane, error) {
	pool, err := nvmeof.DialPool(addr, 1, nvmeof.PoolConfig{
		QueuePairs:       2,
		CommandTimeout:   2 * time.Second,
		MaxRetries:       4,
		RetryBackoff:     10 * time.Millisecond,
		ReconnectBackoff: 50 * time.Millisecond,
		Batch:            nvmeof.BatchConfig{Enabled: true, MergeWrites: true},
	})
	if err != nil {
		return nil, fmt.Errorf("mirror member %s: %w", addr, err)
	}
	if size <= 0 {
		size = pool.NamespaceSize()
	}
	tp, err := nvmeof.NewTCPPlane(pool, 0, size)
	if err != nil {
		pool.Close()
		return nil, fmt.Errorf("mirror member %s: %w", addr, err)
	}
	return &memberPlane{TCPPlane: tp, pool: pool}, nil
}

// memberPlane pairs the plane partition with its connection pool so
// closing the plane closes the sockets.
type memberPlane struct {
	*nvmeof.TCPPlane
	pool *nvmeof.HostPool
}

func (m *memberPlane) Close() error { return m.pool.Close() }

var _ io.Closer = (*memberPlane)(nil)

// downPlane holds the slot of a member that was unreachable at boot.
// The slot is marked down before the plane serves traffic, so these
// methods are never reached while it stands in; a successful migration
// replaces it with a freshly dialed spare.
type downPlane struct {
	addr string
	size int64
}

func (d downPlane) Size() int64 { return d.size }
func (d downPlane) Write(*sim.Proc, int64, int64, []byte, int64) error {
	return fmt.Errorf("mirror member %s down since boot", d.addr)
}
func (d downPlane) Read(*sim.Proc, int64, int64, int64) ([]byte, error) {
	return nil, fmt.Errorf("mirror member %s down since boot", d.addr)
}
func (d downPlane) Flush(*sim.Proc) error {
	return fmt.Errorf("mirror member %s down since boot", d.addr)
}

// startMirror dials every member in spec (comma-separated addresses,
// count a multiple of replicas), builds the mirrored plane, opens the
// migration journal, and recovers any interrupted migration. Member
// partitions are clamped to the smallest exported namespace so the
// geometry stays uniform.
func startMirror(reg *telemetry.Registry, spec string, replicas int, unitKB int64, journalPath string) (*mirrorHead, error) {
	addrs := strings.Split(spec, ",")
	for i := range addrs {
		addrs[i] = strings.TrimSpace(addrs[i])
		if addrs[i] == "" {
			return nil, fmt.Errorf("mirror: empty member address in %q", spec)
		}
	}
	if replicas < 1 {
		return nil, fmt.Errorf("mirror: replicas %d < 1", replicas)
	}
	if len(addrs)%replicas != 0 {
		return nil, fmt.Errorf("mirror: %d members is not a multiple of %d replicas", len(addrs), replicas)
	}
	if unitKB <= 0 {
		return nil, fmt.Errorf("mirror: unit %d KiB", unitKB)
	}

	// First pass sizes every member; the second dials the uniform
	// partition the geometry needs. A member that refuses the dial does
	// NOT fail the boot — surviving a down member is what the mirror is
	// for: its slot is held by a placeholder, marked down before any
	// traffic, and re-admitted by migration once the target is back.
	size := int64(0)
	down := make([]bool, len(addrs))
	for i, addr := range addrs {
		probe, err := dialMirrorMember(addr, 0)
		if err != nil {
			log.Printf("nvmecrd: mirror member %d (%s) unreachable at boot, starting degraded: %v", i, addr, err)
			down[i] = true
			continue
		}
		if s := probe.Size(); size == 0 || s < size {
			size = s
		}
		probe.(io.Closer).Close()
	}
	if size == 0 {
		return nil, fmt.Errorf("mirror: no member of %q reachable", spec)
	}
	children := make([]plane.Plane, len(addrs))
	for i, addr := range addrs {
		if down[i] {
			children[i] = downPlane{addr: addr, size: size}
			continue
		}
		child, err := dialMirrorMember(addr, size)
		if err != nil {
			log.Printf("nvmecrd: mirror member %d (%s) lost between sizing and dial, starting degraded: %v", i, addr, err)
			down[i] = true
			children[i] = downPlane{addr: addr, size: size}
			continue
		}
		children[i] = child
	}
	sp, err := nvmeof.NewMirroredPlane(children, unitKB<<10, replicas)
	if err != nil {
		return nil, err
	}
	for i := range addrs {
		if down[i] {
			if err := sp.SetChildDown(i); err != nil {
				sp.Close()
				return nil, err
			}
		}
	}
	sp.Instrument(reg)

	journal, err := rebalance.OpenJournal(journalPath)
	if err != nil {
		sp.Close()
		return nil, err
	}
	redial := func(addr string) (plane.Plane, error) { return dialMirrorMember(addr, size) }
	mig, err := rebalance.New(rebalance.Config{
		Plane:    sp,
		Journal:  journal,
		Registry: reg,
		// A member's spare is a fresh dial of the same address: the
		// operator restarts (or replaces) the target behind it and the
		// migrator re-replicates onto the empty namespace. The address
		// doubles as the journal label so recovery re-dials the same
		// endpoint.
		Spare: func(child int) (plane.Plane, string, error) {
			addr := addrs[child]
			p, err := redial(addr)
			return p, addr, err
		},
		Restore: redial,
	})
	if err != nil {
		sp.Close()
		journal.Close()
		return nil, err
	}
	// Finish or roll back any migration a previous process left open
	// before the plane serves traffic.
	if sts, err := mig.Recover(); err != nil {
		log.Printf("nvmecrd: mirror recovery: %v", err)
	} else {
		for _, st := range sts {
			log.Printf("nvmecrd: recovered migration %d (member %d): %s", st.ID, st.Child, st.State)
		}
	}

	return &mirrorHead{plane: sp, migrator: mig, journal: journal}, nil
}

// Close tears down the plane (and with it every member pool) and the
// journal.
func (h *mirrorHead) Close() error {
	err := h.plane.Close()
	if jerr := h.journal.Close(); err == nil {
		err = jerr
	}
	return err
}
