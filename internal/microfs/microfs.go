// Package microfs implements the paper's central abstraction: a micro
// filesystem — an ephemeral, per-process, private-namespace filesystem
// that runs entirely in userspace and accesses its SSD partition
// directly through a data plane (SPDK locally, SPDK+NVMe-oF remotely).
//
// Each application process owns exactly one Instance. Because the
// namespace is private, no control-plane operation ever coordinates
// with another process (paper §III-A, Principle 3). Metadata (inodes,
// a circular hugeblock pool, and a B+Tree from paths to inodes) lives
// in compute-node DRAM; durability comes from metadata provenance — a
// compact operation log on the SSD (internal/wal) — plus periodic
// internal snapshots of the DRAM state written by a background thread.
//
// Block placement is deterministic: the circular pool hands out blocks
// in a fixed order, so replaying the operation log after a crash
// re-derives the exact physical layout without logging block lists.
package microfs

import (
	"fmt"
	"strings"
	"time"

	"github.com/nvme-cr/nvmecr/internal/blockpool"
	"github.com/nvme-cr/nvmecr/internal/btree"
	"github.com/nvme-cr/nvmecr/internal/model"
	"github.com/nvme-cr/nvmecr/internal/plane"
	"github.com/nvme-cr/nvmecr/internal/sim"
	"github.com/nvme-cr/nvmecr/internal/telemetry"
	"github.com/nvme-cr/nvmecr/internal/vfs"
	"github.com/nvme-cr/nvmecr/internal/wal"
)

// Features toggles the paper's individual design contributions, for the
// drilldown evaluation (Figure 7d). The production configuration has
// everything enabled.
type Features struct {
	// Provenance selects compact operation logging. When false the
	// instance journals full inodes and physical (per-block) log
	// records, like conventional filesystems.
	Provenance bool
	// Hugeblocks selects 32 KB allocation/IO units. When false the
	// instance uses kernel-style 4 KB blocks.
	Hugeblocks bool
}

// AllFeatures is the production configuration.
func AllFeatures() Features {
	return Features{Provenance: true, Hugeblocks: true}
}

// GlobalNamespace emulates the serialized global-namespace metadata path
// of conventional filesystems for the drilldown's "no private namespace"
// arm: every metadata operation from every instance acquires one shared
// lock and holds it for ServiceTime.
type GlobalNamespace struct {
	Lock *sim.Resource
	// ServiceTime is the serialized work per metadata operation
	// (distributed lock + shared directory update).
	ServiceTime time.Duration
	// PerBlockJournal, when non-zero, additionally serializes
	// per-block allocation/journal work on the write path under the
	// same lock — the shared-journal collapse of conventional kernel
	// filesystems, used by the drilldown's base design.
	PerBlockJournal time.Duration
}

// NewGlobalNamespace builds the shared-lock namespace emulation.
func NewGlobalNamespace(env *sim.Env, service time.Duration) *GlobalNamespace {
	return &GlobalNamespace{Lock: env.NewResource(1), ServiceTime: service}
}

// Config configures one Instance.
type Config struct {
	// Plane is the partition data plane (required).
	Plane plane.Plane
	// Host holds userspace software cost constants.
	Host model.Host
	// Features toggles individual optimizations; use AllFeatures().
	Features Features
	// HugeblockBytes overrides the block size (default 32 KB with
	// Features.Hugeblocks, 4 KB without).
	HugeblockBytes int64
	// LogBytes is the provenance log region size (default 4 MB).
	LogBytes int64
	// LogPageBytes is the device write granularity for the provenance
	// log (default 4 KB). Crash tests use smaller pages so that log
	// records routinely straddle page boundaries — the tear shape the
	// record CRC exists to catch.
	LogPageBytes int64
	// SnapBytes is the metadata snapshot region size (default 64 MB).
	SnapBytes int64
	// SnapThreshold is the log fill fraction that triggers a
	// background metadata snapshot (default 0.7).
	SnapThreshold float64
	// NoCoalesce disables log record coalescing (ablation).
	NoCoalesce bool
	// WrapLogWrite, when non-nil, wraps the WAL flush callback. It is
	// called once per process that writes the log, with that process's
	// callback. Fault-injection harnesses use it to tear or drop log
	// appends at chosen byte offsets (see faults.TornAppendFunc) without
	// touching the data plane.
	WrapLogWrite func(wal.WriteFunc) wal.WriteFunc
	// GlobalNS, when non-nil, routes metadata operations through a
	// shared lock (drilldown "global namespace" arm).
	GlobalNS *GlobalNamespace
	// Account, when non-nil, is shared with the data plane so that
	// kernel/user/IO time lands in one ledger (default: a fresh one).
	Account *vfs.Account
	// Tracer, when non-nil, receives a virtual-time span for every
	// write, fsync, snapshot, and restart on this instance.
	Tracer *telemetry.Tracer
	// Rank labels the instance's trace events (its MPI world rank).
	Rank int
}

func (c *Config) setDefaults() error {
	if c.Plane == nil {
		return fmt.Errorf("microfs: Config.Plane is required")
	}
	if c.HugeblockBytes == 0 {
		if c.Features.Hugeblocks {
			c.HugeblockBytes = 32 * model.KB
		} else {
			c.HugeblockBytes = 4 * model.KB
		}
	}
	if c.LogBytes == 0 {
		c.LogBytes = 4 * model.MB
	}
	if c.LogPageBytes == 0 {
		c.LogPageBytes = 4 * model.KB
	}
	if c.SnapBytes == 0 {
		c.SnapBytes = 64 * model.MB
	}
	if c.SnapThreshold == 0 {
		c.SnapThreshold = 0.7
	}
	if c.LogBytes+c.SnapBytes >= c.Plane.Size() {
		return fmt.Errorf("microfs: log (%d) + snapshot (%d) regions exceed partition (%d)",
			c.LogBytes, c.SnapBytes, c.Plane.Size())
	}
	return nil
}

// inode is the in-DRAM file metadata.
type inode struct {
	id     uint64
	size   int64
	blocks []int64
	mode   uint32
	isDir  bool
	opens  int
	// mtime is the last modification stamp in virtual time. Stamps are
	// strictly monotonic per instance (ties broken by a nanosecond
	// bump), so recency ordering survives log replay, which re-applies
	// many operations at one virtual instant.
	mtime time.Duration
}

// Stats counts control- and data-plane activity for one instance.
type Stats struct {
	Creates      int64
	Mkdirs       int64
	Opens        int64
	Unlinks      int64
	Writes       int64
	Reads        int64
	BytesWritten int64
	BytesRead    int64
	Snapshots    int64
	Recoveries   int64
}

// Instance is one process's micro filesystem.
type Instance struct {
	env *sim.Env
	cfg Config

	acct *vfs.Account
	pool *blockpool.Pool
	log  *wal.Log
	tree *btree.Tree

	inodes   map[uint64]*inode
	nextIno  uint64
	openCnt  int
	dataBase int64
	// lastMtime is the high-water modification stamp backing the
	// monotonic mtime tick (see inode.mtime).
	lastMtime time.Duration

	// logW is the log's write callback for process logP (see logWriter).
	logW wal.WriteFunc
	logP *sim.Proc

	// closed tracks background-thread lifecycle.
	closeSig *sim.Signal
	bgStop   bool
	bgWG     *sim.WaitGroup

	// snapshot mutual exclusion between the background thread and the
	// forced (log-full) path. resetting holds from a snapshot's decision
	// to reset the log until it has: no log call starts meanwhile (see
	// awaitReset).
	snapBusy  bool
	resetting bool
	snapDone  *sim.Signal

	// snapLen is the size of the latest committed snapshot (0 when
	// none); snapSlot is the A/B body slot the live header points to.
	snapLen  int64
	snapSlot int

	// stage is the write path's one staged run: the bytes of coalesced
	// writes not yet sent, device-contiguous from stageOff, in a buffer of
	// stageBytes allocated by the first write that stages. flushing
	// reports that the run is detached and in flight (see flushStage).
	stage    []byte
	stageOff int64
	flushing bool

	stats Stats
}

// rootPath is the private namespace root.
const rootPath = "/"

// rootIno is the root directory's inode id.
const rootIno = 1

// New creates an instance over its partition. The partition layout is
// [log | snapshot | data]; the data region is divided into hugeblocks.
func New(env *sim.Env, cfg Config) (*Instance, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	dataBase := cfg.LogBytes + cfg.SnapBytes
	pool, err := blockpool.New(cfg.Plane.Size()-dataBase, cfg.HugeblockBytes)
	if err != nil {
		return nil, fmt.Errorf("microfs: %w", err)
	}
	acct := cfg.Account
	if acct == nil {
		acct = &vfs.Account{}
	}
	inst := &Instance{
		env:      env,
		cfg:      cfg,
		acct:     acct,
		pool:     pool,
		tree:     btree.New(),
		inodes:   make(map[uint64]*inode),
		nextIno:  rootIno,
		dataBase: dataBase,
		closeSig: env.NewSignal(),
		snapDone: env.NewSignal(),
	}
	log, err := wal.New(wal.Options{
		Capacity:   cfg.LogBytes,
		PageSize:   cfg.LogPageBytes,
		NoCoalesce: cfg.NoCoalesce,
	})
	if err != nil {
		return nil, fmt.Errorf("microfs: %w", err)
	}
	inst.log = log
	// The root directory exists implicitly and is never logged.
	root := &inode{id: rootIno, isDir: true, mode: 0o755}
	inst.inodes[rootIno] = root
	inst.tree.Insert(rootPath, rootIno)
	inst.nextIno = rootIno + 1
	return inst, nil
}

// logWriter returns the WAL flush callback for process p, wrapped by the
// fault-injection hook when one is configured. It is a function of p
// alone; the last one built is kept, so a run of p's operations builds one.
func (inst *Instance) logWriter(p *sim.Proc) wal.WriteFunc {
	if inst.logW == nil || inst.logP != p {
		w := func(off int64, data []byte) error { return inst.logWrite(p, off, data) }
		if inst.cfg.WrapLogWrite != nil {
			w = inst.cfg.WrapLogWrite(w)
		}
		inst.logW, inst.logP = w, p
	}
	return inst.logW
}

// logWrite persists log pages through the data plane on p's behalf.
// Staged data goes first — whatever record kind the page carries, it may
// carry the extension that admits the staged bytes too — and while that
// fails no log byte moves.
func (inst *Instance) logWrite(p *sim.Proc, off int64, data []byte) error {
	if err := inst.flushStage(p); err != nil {
		return err
	}
	return inst.cfg.Plane.Write(p, off, int64(len(data)), data, inst.cfg.LogPageBytes)
}

// noopSpan is returned by traceSpan when tracing is off, so hot paths
// pay one nil check and no allocation.
var noopSpan = func() {}

// traceSpan opens a virtual-time span; invoking the returned func
// closes it at the process's then-current virtual time. bytes < 0
// omits the payload attribute.
func (inst *Instance) traceSpan(p *sim.Proc, name string, bytes int64) func() {
	tr := inst.cfg.Tracer
	if tr == nil {
		return noopSpan
	}
	t0 := p.Now()
	return func() {
		var attrs map[string]any
		if bytes >= 0 {
			attrs = map[string]any{"bytes": bytes}
		}
		tr.SpanVirt(name, inst.cfg.Rank, t0, p.Now(), attrs)
	}
}

// touch stamps ino with a fresh monotonic modification time.
func (inst *Instance) touch(ino *inode) {
	t := inst.env.Now()
	if t <= inst.lastMtime {
		t = inst.lastMtime + 1
	}
	inst.lastMtime = t
	ino.mtime = t
}

// Account returns the instance's time accounting.
func (inst *Instance) Account() *vfs.Account { return inst.acct }

// Stats returns operation counters.
func (inst *Instance) Stats() Stats { return inst.stats }

// Log exposes the provenance log (diagnostics and tests).
func (inst *Instance) Log() *wal.Log { return inst.log }

// Pool exposes the hugeblock pool (diagnostics and tests).
func (inst *Instance) Pool() *blockpool.Pool { return inst.pool }

// OpenFiles returns the number of currently open handles; the background
// snapshot thread uses it to detect the end of a checkpoint phase.
func (inst *Instance) OpenFiles() int { return inst.openCnt }

// MetaDRAMBytes estimates the instance's DRAM metadata footprint
// (Table I: inodes plus B+Tree).
func (inst *Instance) MetaDRAMBytes() (inodeBytes, treeBytes int64) {
	for _, ino := range inst.inodes {
		inodeBytes += 64 + int64(len(ino.blocks))*8
	}
	return inodeBytes, inst.tree.FootprintBytes()
}

// MetaStorageBytes reports the SSD bytes devoted to metadata: the live
// log plus the latest snapshot.
func (inst *Instance) MetaStorageBytes() int64 {
	return inst.log.Head() + inst.snapLen
}

// normalize validates and canonicalizes a path within the private
// namespace.
func normalize(path string) (string, error) {
	if path == "" || path[0] != '/' {
		return "", fmt.Errorf("microfs: path %q must be absolute within the private namespace", path)
	}
	if path != "/" && strings.HasSuffix(path, "/") {
		path = strings.TrimRight(path, "/")
	}
	if strings.Contains(path, "//") || strings.Contains(path, "/../") || strings.HasSuffix(path, "/..") {
		return "", fmt.Errorf("microfs: unsupported path %q", path)
	}
	return path, nil
}

func parentOf(path string) string {
	i := strings.LastIndexByte(path, '/')
	if i <= 0 {
		return rootPath
	}
	return path[:i]
}
