package vfs

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"github.com/nvme-cr/nvmecr/internal/sim"
	"github.com/nvme-cr/nvmecr/internal/telemetry"
)

// MountConfig describes one mount in a Namespace.
type MountConfig struct {
	// Path is the namespace-absolute mount point ("/", "/tenants/a").
	Path string
	// Backend serves every path at or below Path (unless a deeper
	// mount shadows it).
	Backend Backend
	// Name labels the mount's telemetry series (nvmecr_mount_*); it
	// defaults to Path.
	Name string
	// QuotaBytes caps the bytes this mount may hold (0 = unlimited).
	// Writes that would grow past the cap fail with ErrNoSpace.
	QuotaBytes int64
	// QuotaInodes caps files + directories created through this mount
	// (0 = unlimited). Breaches fail with ErrNoSpace.
	QuotaInodes int64
}

// Mount is one live mount: configuration plus quota usage and telemetry.
type Mount struct {
	cfg  MountConfig
	path string
	name string

	reg          *telemetry.Registry
	bytesWritten *telemetry.Counter
	bytesRead    *telemetry.Counter
	rejections   *telemetry.Counter
	errsTotal    *telemetry.Counter
	bytesUsedG   *telemetry.Gauge
	inodesUsedG  *telemetry.Gauge

	mu         sync.Mutex
	bytesUsed  int64
	inodesUsed int64
}

// Path returns the mount point.
func (m *Mount) Path() string { return m.path }

// Name returns the telemetry label.
func (m *Mount) Name() string { return m.name }

// Quota returns the configured byte and inode caps (0 = unlimited).
func (m *Mount) Quota() (bytes, inodes int64) {
	return m.cfg.QuotaBytes, m.cfg.QuotaInodes
}

// Usage returns the bytes and inodes currently charged against the
// mount's quotas.
func (m *Mount) Usage() (bytes, inodes int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.bytesUsed, m.inodesUsed
}

// opInc counts one operation in nvmecr_mount_ops_total{mount,op}.
func (m *Mount) opInc(op string) {
	if m.reg != nil {
		m.reg.Counter("nvmecr_mount_ops_total", telemetry.Labels{"mount": m.name, "op": op}).Inc()
	}
}

// errInc counts one failed operation.
func (m *Mount) errInc() { m.errsTotal.Inc() }

// reserveBytes charges growth against the byte quota.
func (m *Mount) reserveBytes(n int64) error {
	if n <= 0 {
		return nil
	}
	m.mu.Lock()
	if q := m.cfg.QuotaBytes; q > 0 && m.bytesUsed+n > q {
		m.mu.Unlock()
		m.rejections.Inc()
		return ErrNoSpace
	}
	m.bytesUsed += n
	used := m.bytesUsed
	m.mu.Unlock()
	m.bytesUsedG.Set(used)
	return nil
}

// releaseBytes returns reserved bytes (unlink, truncate, failed write).
func (m *Mount) releaseBytes(n int64) {
	if n <= 0 {
		return
	}
	m.mu.Lock()
	m.bytesUsed -= n
	if m.bytesUsed < 0 {
		m.bytesUsed = 0
	}
	used := m.bytesUsed
	m.mu.Unlock()
	m.bytesUsedG.Set(used)
}

// reserveInode charges one file/directory against the inode quota.
func (m *Mount) reserveInode() error {
	m.mu.Lock()
	if q := m.cfg.QuotaInodes; q > 0 && m.inodesUsed+1 > q {
		m.mu.Unlock()
		m.rejections.Inc()
		return ErrNoSpace
	}
	m.inodesUsed++
	used := m.inodesUsed
	m.mu.Unlock()
	m.inodesUsedG.Set(used)
	return nil
}

// releaseInode returns one inode quota unit.
func (m *Mount) releaseInode() {
	m.mu.Lock()
	m.inodesUsed--
	if m.inodesUsed < 0 {
		m.inodesUsed = 0
	}
	used := m.inodesUsed
	m.mu.Unlock()
	m.inodesUsedG.Set(used)
}

// Namespace composes backends into one tree: every path is served by
// the mount with the longest prefix covering it, so nested mounts
// shadow their parents (the everything-is-a-mount model). A Namespace
// is itself a Backend (and a Client), so namespaces nest.
//
// The mount table and per-mount quota counters are guarded by locks, so
// a Namespace over thread-safe backends (MemBackend) may be driven from
// concurrent goroutines; backends built on the deterministic simulator
// (microfs) inherit its one-process-at-a-time discipline.
type Namespace struct {
	reg  *telemetry.Registry
	acct Account

	mu     sync.RWMutex
	mounts []*Mount // sorted by decreasing path length (longest first)
}

// NewNamespace creates an empty namespace. reg, when non-nil, receives
// the per-mount telemetry series (nvmecr_mount_ops_total,
// nvmecr_mount_bytes_{written,read}_total, nvmecr_mount_quota_*,
// nvmecr_mount_errors_total).
func NewNamespace(reg *telemetry.Registry) *Namespace {
	return &Namespace{reg: reg}
}

// Mount adds a mount. Mount points must be unique; "/" mounts a root
// backend that deeper mounts shadow.
func (ns *Namespace) Mount(cfg MountConfig) (*Mount, error) {
	if cfg.Backend == nil {
		return nil, fmt.Errorf("vfs: MountConfig.Backend is required")
	}
	path, err := normalizeNS(cfg.Path)
	if err != nil {
		return nil, err
	}
	name := cfg.Name
	if name == "" {
		name = path
	}
	// Without a registry every instrument stays nil, and counts nothing.
	m := &Mount{cfg: cfg, path: path, name: name, reg: ns.reg}
	if ns.reg != nil {
		labels := telemetry.Labels{"mount": name}
		m.bytesWritten = ns.reg.Counter("nvmecr_mount_bytes_written_total", labels)
		m.bytesRead = ns.reg.Counter("nvmecr_mount_bytes_read_total", labels)
		m.rejections = ns.reg.Counter("nvmecr_mount_quota_rejections_total", labels)
		m.errsTotal = ns.reg.Counter("nvmecr_mount_errors_total", labels)
		m.bytesUsedG = ns.reg.Gauge("nvmecr_mount_quota_bytes_used", labels)
		m.inodesUsedG = ns.reg.Gauge("nvmecr_mount_quota_inodes_used", labels)
	}
	ns.mu.Lock()
	defer ns.mu.Unlock()
	for _, existing := range ns.mounts {
		if existing.path == path {
			return nil, fmt.Errorf("vfs: %q is already a mount point", path)
		}
	}
	ns.mounts = append(ns.mounts, m)
	sort.Slice(ns.mounts, func(i, j int) bool {
		a, b := ns.mounts[i].path, ns.mounts[j].path
		if len(a) != len(b) {
			return len(a) > len(b)
		}
		return a < b
	})
	return m, nil
}

// Unmount removes the mount at path. Quota state and telemetry series
// are dropped with it; files in the backend are untouched.
func (ns *Namespace) Unmount(path string) error {
	path, err := normalizeNS(path)
	if err != nil {
		return err
	}
	ns.mu.Lock()
	defer ns.mu.Unlock()
	for i, m := range ns.mounts {
		if m.path == path {
			ns.mounts = append(ns.mounts[:i], ns.mounts[i+1:]...)
			return nil
		}
	}
	return ErrNotExist
}

// Mounts returns the live mounts, longest mount point first.
func (ns *Namespace) Mounts() []*Mount {
	ns.mu.RLock()
	defer ns.mu.RUnlock()
	return append([]*Mount(nil), ns.mounts...)
}

// Account implements Client. Backends charge modeled time to their own
// accounts; the namespace's account exists so a Namespace satisfies the
// Client interface where one is expected.
func (ns *Namespace) Account() *Account { return &ns.acct }

// resolve finds the owning mount for path by longest-prefix match and
// returns the backend-relative path.
func (ns *Namespace) resolve(path string) (*Mount, string, error) {
	path, err := normalizeNS(path)
	if err != nil {
		return nil, "", err
	}
	ns.mu.RLock()
	defer ns.mu.RUnlock()
	for _, m := range ns.mounts { // longest mount point first
		if covers(m.path, path) {
			return m, relPath(m.path, path), nil
		}
	}
	return nil, path, nil
}

// covers reports whether mount point mp owns path.
func covers(mp, path string) bool {
	if mp == "/" {
		return true
	}
	return path == mp || strings.HasPrefix(path, mp+"/")
}

// relPath translates a namespace-absolute path to a backend-absolute
// one.
func relPath(mp, path string) string {
	if mp == "/" {
		return path
	}
	if path == mp {
		return "/"
	}
	return path[len(mp):]
}

// joinNS translates a backend-absolute path back to namespace-absolute.
func joinNS(mp, rel string) string {
	if mp == "/" {
		return rel
	}
	if rel == "/" {
		return mp
	}
	return mp + rel
}

// normalizeNS validates and canonicalizes a namespace path.
func normalizeNS(path string) (string, error) {
	if path == "" || path[0] != '/' {
		return "", fmt.Errorf("vfs: path %q must be absolute", path)
	}
	if path != "/" && strings.HasSuffix(path, "/") {
		path = strings.TrimRight(path, "/")
	}
	if strings.Contains(path, "//") || strings.Contains(path, "/../") || strings.HasSuffix(path, "/..") {
		return "", fmt.Errorf("vfs: unsupported path %q", path)
	}
	return path, nil
}

// mountChildNames returns the names of mounts rooted directly below or
// anywhere under dir (first path segment below dir), for synthesizing
// directory entries.
func (ns *Namespace) mountChildNames(dir string) []string {
	prefix := dir
	if prefix != "/" {
		prefix += "/"
	}
	ns.mu.RLock()
	defer ns.mu.RUnlock()
	seen := map[string]bool{}
	var names []string
	for _, m := range ns.mounts {
		if m.path == dir || !strings.HasPrefix(m.path, prefix) {
			continue
		}
		rest := m.path[len(prefix):]
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			rest = rest[:i]
		}
		if !seen[rest] {
			seen[rest] = true
			names = append(names, rest)
		}
	}
	return names
}

// isMountAncestor reports whether dir lies on the path to some mount
// point (so it must exist as a synthetic directory even when no backend
// serves it).
func (ns *Namespace) isMountAncestor(dir string) bool {
	if dir == "/" {
		return true
	}
	prefix := dir + "/"
	ns.mu.RLock()
	defer ns.mu.RUnlock()
	for _, m := range ns.mounts {
		if m.path == dir || strings.HasPrefix(m.path, prefix) {
			return true
		}
	}
	return false
}

// Mkdir implements Backend.
func (ns *Namespace) Mkdir(p *sim.Proc, path string, mode uint32) error {
	m, rel, err := ns.resolve(path)
	if err != nil {
		return err
	}
	if m == nil {
		return ErrNotExist
	}
	m.opInc("mkdir")
	if err := m.reserveInode(); err != nil {
		m.errInc()
		return err
	}
	if err := m.cfg.Backend.Mkdir(p, rel, mode); err != nil {
		m.releaseInode()
		m.errInc()
		return err
	}
	return nil
}

// Open implements Backend.
func (ns *Namespace) Open(p *sim.Proc, path string, flags OpenFlags, mode uint32) (File, error) {
	m, rel, err := ns.resolve(path)
	if err != nil {
		return nil, err
	}
	if m == nil {
		if ns.isMountAncestor(rel) {
			return nil, ErrIsDir
		}
		return nil, ErrNotExist
	}
	m.opInc("open")
	// Establish the pre-open size for quota accounting: growth is
	// charged relative to it, truncation and creation adjust it.
	trackQuota := m.cfg.QuotaBytes > 0 || m.cfg.QuotaInodes > 0
	var preSize int64
	preExists := false
	if trackQuota {
		if info, serr := m.cfg.Backend.Stat(p, rel); serr == nil {
			preExists = true
			preSize = info.Size
		}
	}
	creating := trackQuota && !preExists && flags.Has(O_CREATE)
	if creating {
		if err := m.reserveInode(); err != nil {
			m.errInc()
			return nil, err
		}
	}
	f, err := m.cfg.Backend.Open(p, rel, flags, mode)
	if err != nil {
		if creating {
			m.releaseInode()
		}
		m.errInc()
		return nil, err
	}
	size := preSize
	if preExists && flags.Has(O_TRUNC) && flags.Writable() {
		m.releaseBytes(preSize)
		size = 0
	}
	mf := &mountFile{File: f, m: m, size: size}
	if flags.Has(O_APPEND) {
		mf.pos = size
	}
	return mf, nil
}

// Unlink implements Backend.
func (ns *Namespace) Unlink(p *sim.Proc, path string) error {
	m, rel, err := ns.resolve(path)
	if err != nil {
		return err
	}
	if m == nil {
		return ErrNotExist
	}
	m.opInc("unlink")
	var freed int64
	existed := false
	if m.cfg.QuotaBytes > 0 || m.cfg.QuotaInodes > 0 {
		if info, serr := m.cfg.Backend.Stat(p, rel); serr == nil {
			freed = info.Size
			existed = true
		}
	}
	if err := m.cfg.Backend.Unlink(p, rel); err != nil {
		m.errInc()
		return err
	}
	if existed {
		m.releaseBytes(freed)
		m.releaseInode()
	}
	return nil
}

// Rename implements Backend. Both paths must resolve to the same mount:
// rename is atomic only within one backend.
func (ns *Namespace) Rename(p *sim.Proc, oldPath, newPath string) error {
	mOld, relOld, err := ns.resolve(oldPath)
	if err != nil {
		return err
	}
	mNew, relNew, err := ns.resolve(newPath)
	if err != nil {
		return err
	}
	if mOld == nil || mNew == nil {
		return ErrNotExist
	}
	if mOld != mNew {
		mOld.errInc()
		return ErrCrossMount
	}
	m := mOld
	m.opInc("rename")
	if err := m.cfg.Backend.Rename(p, relOld, relNew); err != nil {
		m.errInc()
		return err
	}
	return nil
}

// ReadDir implements Backend: the owning backend's listing merged with
// synthetic entries for mounts rooted below dir. A mount entry shadows
// a backend entry of the same name, the directory-level view of nested
// mounts shadowing their parents.
func (ns *Namespace) ReadDir(p *sim.Proc, dir string) ([]FileInfo, error) {
	m, rel, err := ns.resolve(dir)
	if err != nil {
		return nil, err
	}
	var entries []FileInfo
	if m != nil {
		m.opInc("readdir")
		dir = joinNS(m.path, rel) // normalized
		backendEntries, rerr := m.cfg.Backend.ReadDir(p, rel)
		if rerr != nil {
			// A directory that exists only as the parent of deeper
			// mounts has no backend presence; synthesize it.
			if !ns.isMountAncestor(dir) {
				m.errInc()
				return nil, rerr
			}
		}
		for _, e := range backendEntries {
			e.Path = joinNS(m.path, e.Path)
			entries = append(entries, e)
		}
	} else {
		dir = rel // resolve already normalized it
		if !ns.isMountAncestor(dir) {
			return nil, ErrNotExist
		}
	}
	prefix := dir
	if prefix != "/" {
		prefix += "/"
	}
	for _, name := range ns.mountChildNames(dir) {
		syn := FileInfo{Path: prefix + name, IsDir: true, Mode: 0o755}
		replaced := false
		for i := range entries {
			if entries[i].Path == syn.Path {
				entries[i] = syn
				replaced = true
				break
			}
		}
		if !replaced {
			entries = append(entries, syn)
		}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Path < entries[j].Path })
	return entries, nil
}

// Stat implements Backend.
func (ns *Namespace) Stat(p *sim.Proc, path string) (FileInfo, error) {
	m, rel, err := ns.resolve(path)
	if err != nil {
		return FileInfo{}, err
	}
	if m == nil {
		if ns.isMountAncestor(rel) {
			return FileInfo{Path: rel, IsDir: true, Mode: 0o755}, nil
		}
		return FileInfo{}, ErrNotExist
	}
	m.opInc("stat")
	info, err := m.cfg.Backend.Stat(p, rel)
	if err != nil {
		full := joinNS(m.path, rel)
		if ns.isMountAncestor(full) {
			return FileInfo{Path: full, IsDir: true, Mode: 0o755}, nil
		}
		m.errInc()
		return FileInfo{}, err
	}
	info.Path = joinNS(m.path, info.Path)
	return info, nil
}

// mountFile wraps a backend file handle with quota enforcement and
// per-mount byte telemetry. Growth is tracked per handle against the
// size observed at open; concurrent writers to the same file through
// separate handles may over-count growth (quota accounting is
// conservative, never under-counting).
type mountFile struct {
	File
	m    *Mount
	pos  int64
	size int64
}

func (f *mountFile) Write(p *sim.Proc, data []byte) (int, error) {
	n, err := f.write(int64(len(data)), func() (int64, error) {
		n, err := f.File.Write(p, data)
		return int64(n), err
	})
	return int(n), err
}

func (f *mountFile) WriteN(p *sim.Proc, n int64) (int64, error) {
	return f.write(n, func() (int64, error) { return f.File.WriteN(p, n) })
}

func (f *mountFile) write(n int64, do func() (int64, error)) (int64, error) {
	if n < 0 {
		n = 0
	}
	growth := f.pos + n - f.size
	if growth < 0 {
		growth = 0
	}
	if err := f.m.reserveBytes(growth); err != nil {
		f.m.errInc()
		return 0, err
	}
	wrote, err := do()
	if wrote < 0 {
		wrote = 0
	}
	end := f.pos + wrote
	actual := end - f.size
	if actual < 0 {
		actual = 0
	}
	if actual < growth {
		f.m.releaseBytes(growth - actual)
	}
	f.pos = end
	if end > f.size {
		f.size = end
	}
	if wrote > 0 {
		f.m.bytesWritten.Add(uint64(wrote))
	}
	if err != nil {
		f.m.errInc()
	}
	return wrote, err
}

func (f *mountFile) Read(p *sim.Proc, buf []byte) (int, error) {
	n, err := f.File.Read(p, buf)
	f.noteRead(int64(n))
	return n, err
}

func (f *mountFile) ReadN(p *sim.Proc, n int64) (int64, error) {
	got, err := f.File.ReadN(p, n)
	f.noteRead(got)
	return got, err
}

func (f *mountFile) noteRead(n int64) {
	if n > 0 {
		f.pos += n
		f.m.bytesRead.Add(uint64(n))
	}
}

func (f *mountFile) SeekTo(offset int64) error {
	if err := f.File.SeekTo(offset); err != nil {
		return err
	}
	if offset < 0 {
		offset = 0
	}
	f.pos = offset
	return nil
}

var (
	_ Backend = (*Namespace)(nil)
	_ Client  = (*Namespace)(nil)
)
