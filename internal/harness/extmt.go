package harness

import (
	"errors"
	"fmt"

	"github.com/nvme-cr/nvmecr/internal/microfs"
	"github.com/nvme-cr/nvmecr/internal/model"
	"github.com/nvme-cr/nvmecr/internal/nvme"
	"github.com/nvme-cr/nvmecr/internal/nvmeof"
	"github.com/nvme-cr/nvmecr/internal/plane"
	"github.com/nvme-cr/nvmecr/internal/sim"
	"github.com/nvme-cr/nvmecr/internal/spdk"
	"github.com/nvme-cr/nvmecr/internal/telemetry"
	"github.com/nvme-cr/nvmecr/internal/vfs"
)

func init() { register("extmt", extMT) }

// extMT demonstrates the multi-tenant mount table: two tenants share
// one vfs.Namespace, each behind its own mount with its own backend —
// tenant alpha on a microfs over a striped two-target data plane, and
// tenant beta on an in-memory backend with a deliberately tight byte
// quota. Beta drives itself into ErrNoSpace while alpha's checkpoint
// traffic runs concurrently. The experiment fails unless the breach
// stays confined to beta's mount and the per-mount nvmecr_mount_*
// series prove the isolation.
func extMT(opts Options) (*Table, error) {
	t := &Table{
		ID:        "extmt",
		Title:     "EXTENSION — multi-tenant namespace: quota breaches isolated per mount",
		PaperNote: "beyond the paper: one front door over per-tenant backends; the paper's private namespaces (§III-B) become mounts with quotas and telemetry",
		Header:    []string{"tenant", "backend", "opens", "bytes-written", "quota-rejections", "breach"},
	}
	r, err := extMTRun(opts)
	if err != nil {
		return nil, err
	}
	t.AddRow(r.alpha...)
	t.AddRow(r.beta...)
	return t, nil
}

// extMTResult carries the formatted table rows.
type extMTResult struct {
	alpha, beta []string
}

// extMTBetaQuota is beta's byte quota; small enough that its workload
// breaches it within a handful of files.
const extMTBetaQuota = 96 * model.KB

func extMTRun(opts Options) (*extMTResult, error) {
	alphaFiles, alphaBytes := 8, int64(2*model.MB)
	if opts.Quick {
		alphaFiles, alphaBytes = 3, int64(256*model.KB)
	}

	env := sim.NewEnv()
	params := model.Default()
	params.SSD.CapacityGB = 1

	// Tenant alpha: a microfs striped across two simulated targets.
	acct := &vfs.Account{}
	var children []plane.Plane
	for i := 0; i < 2; i++ {
		dev := nvme.New(env, fmt.Sprintf("ssd%d", i), params.SSD, false)
		ns, err := dev.CreateNamespace(256 * model.MB)
		if err != nil {
			return nil, err
		}
		pl, err := spdk.NewPlane(ns, 0, ns.Size(), params.Host, acct)
		if err != nil {
			return nil, err
		}
		children = append(children, pl)
	}
	sp, err := nvmeof.NewStripedPlane(children, 128*model.KB)
	if err != nil {
		return nil, err
	}
	inst, err := microfs.New(env, microfs.Config{
		Plane:    sp,
		Host:     params.Host,
		Features: microfs.AllFeatures(),
		Account:  acct,
		LogBytes: 256 * model.KB,
		// SnapBytes sized for the file count; snapshots are not the
		// point of this experiment.
		SnapBytes: 4 * model.MB,
	})
	if err != nil {
		return nil, err
	}

	reg := telemetry.New()
	nsp := vfs.NewNamespace(reg)
	if _, err := nsp.Mount(vfs.MountConfig{
		Path: "/tenants/alpha", Backend: inst, Name: "alpha",
	}); err != nil {
		return nil, err
	}
	if _, err := nsp.Mount(vfs.MountConfig{
		Path: "/tenants/beta", Backend: vfs.NewMemBackend(), Name: "beta",
		QuotaBytes: extMTBetaQuota, QuotaInodes: 64,
	}); err != nil {
		return nil, err
	}
	var alphaErr, betaErr error
	betaBreached := false
	env.Go("alpha", func(p *sim.Proc) {
		if err := nsp.Mkdir(p, "/tenants/alpha/ckpt", 0o755); err != nil {
			alphaErr = err
			return
		}
		for i := 0; i < alphaFiles; i++ {
			path := fmt.Sprintf("/tenants/alpha/ckpt/step%04d.dat", i)
			f, err := nsp.Open(p, path, vfs.O_WRONLY|vfs.O_CREATE|vfs.O_EXCL, 0o644)
			if err != nil {
				alphaErr = fmt.Errorf("alpha open %s: %w", path, err)
				return
			}
			if _, err := vfs.WriteAllN(p, f, alphaBytes, 256*model.KB); err != nil {
				alphaErr = fmt.Errorf("alpha write %s: %w", path, err)
				return
			}
			if err := f.Fsync(p); err != nil {
				alphaErr = err
				return
			}
			if err := f.Close(p); err != nil {
				alphaErr = err
				return
			}
		}
	})
	env.Go("beta", func(p *sim.Proc) {
		// Write 16 KB files until the quota rejects one, then prove the
		// mount is still serviceable below the limit.
		for i := 0; ; i++ {
			if i > 64 {
				betaErr = fmt.Errorf("beta: quota never breached after %d files", i)
				return
			}
			path := fmt.Sprintf("/tenants/beta/seg%04d.dat", i)
			f, err := nsp.Open(p, path, vfs.O_WRONLY|vfs.O_CREATE|vfs.O_EXCL, 0o644)
			if err != nil {
				betaErr = fmt.Errorf("beta open %s: %w", path, err)
				return
			}
			_, werr := vfs.WriteAllN(p, f, 16*model.KB, 16*model.KB)
			f.Close(p)
			if werr == nil {
				continue
			}
			if !errors.Is(werr, vfs.ErrNoSpace) {
				betaErr = fmt.Errorf("beta write %s: %w", path, werr)
				return
			}
			betaBreached = true
			break
		}
		// Still below the limit after freeing: reads and small writes keep
		// working on this mount.
		if err := nsp.Unlink(p, "/tenants/beta/seg0000.dat"); err != nil {
			betaErr = fmt.Errorf("beta unlink after breach: %w", err)
			return
		}
		g, err := nsp.Open(p, "/tenants/beta/after.dat", vfs.O_WRONLY|vfs.O_CREATE|vfs.O_EXCL, 0o644)
		if err != nil {
			betaErr = fmt.Errorf("beta post-breach open: %w", err)
			return
		}
		if _, err := vfs.WriteAllN(p, g, 4*model.KB, 4*model.KB); err != nil {
			betaErr = fmt.Errorf("beta post-breach write: %w", err)
			return
		}
		if err := g.Close(p); err != nil {
			betaErr = err
		}
	})
	if _, err := env.Run(); err != nil {
		return nil, err
	}
	if alphaErr != nil {
		return nil, fmt.Errorf("extmt: tenant alpha disturbed by beta's quota breach: %w", alphaErr)
	}
	if betaErr != nil {
		return nil, fmt.Errorf("extmt: %w", betaErr)
	}
	if !betaBreached {
		return nil, fmt.Errorf("extmt: beta never hit its quota")
	}

	row := func(name, backend string) ([]string, uint64) {
		l := telemetry.Labels{"mount": name}
		opens := reg.Counter("nvmecr_mount_ops_total", telemetry.Labels{"mount": name, "op": "open"}).Value()
		written := reg.Counter("nvmecr_mount_bytes_written_total", l).Value()
		rej := reg.Counter("nvmecr_mount_quota_rejections_total", l).Value()
		return []string{
			name, backend, itoa(int(opens)),
			fmt.Sprintf("%d", written), itoa(int(rej)),
			fmt.Sprintf("%v", rej > 0),
		}, rej
	}
	alphaRow, alphaRej := row("alpha", "microfs/striped×2")
	betaRow, betaRej := row("beta", "memory")
	if alphaRej != 0 {
		return nil, fmt.Errorf("extmt: alpha recorded %d quota rejections; isolation broken", alphaRej)
	}
	if betaRej == 0 {
		return nil, fmt.Errorf("extmt: beta breached quota but recorded no rejection")
	}
	return &extMTResult{alpha: alphaRow, beta: betaRow}, nil
}
