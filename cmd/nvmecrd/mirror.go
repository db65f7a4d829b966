// Mirror-head mode: with -mirror, nvmecrd also acts as an initiator
// that aggregates remote member targets into one R-way mirrored
// striped plane (RAID-10 shape), wires a health subject per member
// (TCP liveness probes through the engine's hysteresis), and runs the
// rebalance migration plane: when a member is demoted to dead, its
// stripes are re-replicated onto a freshly dialed spare while traffic
// continues, journaled so an interrupted move resumes or rolls back on
// restart. Progress is served on the admin listener at /rebalance and
// in /metrics (nvmecr_rebalance_* series).
package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"strings"
	"time"

	"github.com/nvme-cr/nvmecr/internal/health"
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
	addrs    []string
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
// migration journal, recovers any interrupted migration, and — when
// the health engine is running — registers one probed subject per
// member and arms a dead-triggered migration watch on each. Member
// partitions are clamped to the smallest exported namespace so the
// geometry stays uniform.
func startMirror(eng *health.Engine, reg *telemetry.Registry, spec string, replicas int, unitKB int64, journalPath string) (*mirrorHead, error) {
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

	head := &mirrorHead{plane: sp, migrator: mig, journal: journal, addrs: addrs}
	if eng != nil {
		if err := head.watch(eng); err != nil {
			sp.Close()
			journal.Close()
			return nil, err
		}
	}
	return head, nil
}

// watch registers one health subject per member — TCP liveness probes
// run through the engine's hysteresis — and arms a migration on each
// member's demotion to dead. Because the spare is a fresh dial of the
// member's own address, the dead-triggered migration usually cannot
// dial it (the target is exactly what just went unreachable) and rolls
// back; a second subscription therefore re-arms the move on the
// subject's promotion back out of dead, when a fresh dial can succeed.
func (h *mirrorHead) watch(eng *health.Engine) error {
	probe := func(addr string) bool {
		c, err := net.DialTimeout("tcp", addr, 250*time.Millisecond)
		if err != nil {
			return false
		}
		c.Close()
		return true
	}
	for i, addr := range h.addrs {
		i, addr := i, addr
		subj, err := eng.Register(health.SubjectConfig{
			Kind: "mirror-member",
			Name: addr,
			Collect: func() health.Sample {
				return health.Sample{Live: probe(addr)}
			},
		})
		if err != nil {
			return err
		}
		h.migrator.Watch(subj, i, health.Dead, func(st rebalance.Status, err error) {
			if err != nil {
				log.Printf("nvmecrd: migration of member %d (%s): %v", i, addr, err)
				return
			}
			log.Printf("nvmecrd: member %d (%s) migrated: %s, %d bytes", i, addr, st.State, st.Copied)
		})
		subj.Subscribe(func(old, new health.State, _ health.Verdict) {
			if old < health.Dead || new >= health.Dead {
				return
			}
			// The target is reachable again. If the member's slot is
			// still down — the dead-triggered migration rolled back
			// because its spare dial hit the unreachable target — rerun
			// the move now that the dial can land on the restarted
			// (empty or stale) namespace.
			if h.plane.State(i) != nvmeof.ChildDown {
				return
			}
			go func() {
				st, err := h.migrator.Migrate(i, "health:recovered")
				if err != nil {
					if errors.Is(err, rebalance.ErrMigrationActive) {
						return
					}
					log.Printf("nvmecrd: re-admission of member %d (%s): %v", i, addr, err)
					return
				}
				log.Printf("nvmecrd: member %d (%s) re-admitted: %s, %d bytes", i, addr, st.State, st.Copied)
			}()
		})
	}
	return nil
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
