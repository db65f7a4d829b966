package harness

import (
	"errors"
	"fmt"

	"github.com/nvme-cr/nvmecr/internal/microfs"
	"github.com/nvme-cr/nvmecr/internal/model"
	"github.com/nvme-cr/nvmecr/internal/nvme"
	"github.com/nvme-cr/nvmecr/internal/nvmeof"
	"github.com/nvme-cr/nvmecr/internal/plane"
	"github.com/nvme-cr/nvmecr/internal/qos"
	"github.com/nvme-cr/nvmecr/internal/sim"
	"github.com/nvme-cr/nvmecr/internal/spdk"
	"github.com/nvme-cr/nvmecr/internal/telemetry"
	"github.com/nvme-cr/nvmecr/internal/vfs"
)

func init() { register("extmt", extMT) }

// extMT demonstrates the multi-tenant mount table: three tenants share
// one vfs.Namespace, each behind its own mount with its own backend —
// tenant alpha on a microfs over a striped two-target data plane,
// tenant beta on an in-memory backend with a deliberately tight byte
// quota, and tenant gamma behind BOTH a tight quota and a qos admission
// limit sized to exhaust at the same write. Beta drives itself into
// ErrNoSpace while alpha's checkpoint traffic runs concurrently; gamma
// proves the classification ordering — at quota and out of admission
// tokens simultaneously, the breach reports ErrNoSpace (never a hang,
// never a misclassified ErrAdmission), while a read on the same mount
// shows the admission bucket really is empty. The experiment fails
// unless every breach stays confined to its own mount and the
// per-mount nvmecr_mount_* series prove the isolation.
func extMT(opts Options) (*Table, error) {
	t := &Table{
		ID:        "extmt",
		Title:     "EXTENSION — multi-tenant namespace: quota and admission breaches isolated per mount",
		PaperNote: "beyond the paper: one front door over per-tenant backends; the paper's private namespaces (§III-B) become mounts with quotas, admission control, and telemetry",
		Header:    []string{"tenant", "backend", "opens", "bytes-written", "quota-rejections", "admission-rejections", "breach"},
	}
	r, err := extMTRun(opts)
	if err != nil {
		return nil, err
	}
	t.AddRow(r.alpha...)
	t.AddRow(r.beta...)
	t.AddRow(r.gamma...)
	return t, nil
}

// extMTResult carries the formatted table rows.
type extMTResult struct {
	alpha, beta, gamma []string
}

// extMTBetaQuota is beta's byte quota; small enough that its workload
// breaches it within a handful of files.
const extMTBetaQuota = 96 * model.KB

// extMTGammaQuota is gamma's byte quota AND its admission byte-bucket
// burst: one full-quota write exhausts both at once, which is exactly
// the double-limit corner the classification check needs.
const extMTGammaQuota = 64 * model.KB

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
	ctrl := qos.NewController(reg)
	gammaTenant := ctrl.Tenant("gamma", qos.TenantLimits{
		// Effectively no refill: the burst is the whole budget.
		BytesPerSec: 1, BytesBurst: float64(extMTGammaQuota),
	})
	if _, err := nsp.Mount(vfs.MountConfig{
		Path: "/tenants/gamma", Backend: vfs.NewMemBackend(), Name: "gamma",
		QuotaBytes: extMTGammaQuota, QuotaInodes: 64,
		Admission: gammaTenant,
	}); err != nil {
		return nil, err
	}

	var alphaErr, betaErr, gammaErr error
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
	env.Go("gamma", func(p *sim.Proc) {
		// One write drains the byte quota and the admission bucket in
		// the same stroke.
		f, err := nsp.Open(p, "/tenants/gamma/full.dat", vfs.O_RDWR|vfs.O_CREATE|vfs.O_EXCL, 0o644)
		if err != nil {
			gammaErr = fmt.Errorf("gamma open: %w", err)
			return
		}
		if _, err := vfs.WriteAllN(p, f, extMTGammaQuota, extMTGammaQuota); err != nil {
			gammaErr = fmt.Errorf("gamma fill write: %w", err)
			return
		}
		// At quota AND out of admission tokens: quota is consulted
		// first, so the answer is ErrNoSpace — not a hang, not a
		// misclassified ErrAdmission.
		_, werr := f.WriteN(p, 16*model.KB)
		if !errors.Is(werr, vfs.ErrNoSpace) {
			gammaErr = fmt.Errorf("gamma at both limits: got %v, want ErrNoSpace", werr)
			return
		}
		if errors.Is(werr, qos.ErrAdmission) {
			gammaErr = fmt.Errorf("gamma breach misclassified as admission: %v", werr)
			return
		}
		// The admission bucket really is empty: a read charges no
		// quota, so only admission can (and does) reject it.
		if err := f.SeekTo(0); err != nil {
			gammaErr = err
			return
		}
		if _, rerr := f.ReadN(p, 4*model.KB); !errors.Is(rerr, qos.ErrAdmission) {
			gammaErr = fmt.Errorf("gamma read with empty bucket: got %v, want ErrAdmission", rerr)
			return
		}
		if err := f.Close(p); err != nil {
			gammaErr = err
			return
		}
		// Unlink is admission-exempt: the throttled tenant frees space.
		if err := nsp.Unlink(p, "/tenants/gamma/full.dat"); err != nil {
			gammaErr = fmt.Errorf("gamma unlink must bypass admission: %w", err)
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
	if gammaErr != nil {
		return nil, fmt.Errorf("extmt: %w", gammaErr)
	}
	if !betaBreached {
		return nil, fmt.Errorf("extmt: beta never hit its quota")
	}

	row := func(name, backend string) ([]string, uint64, uint64) {
		l := telemetry.Labels{"mount": name}
		opens := reg.Counter("nvmecr_mount_ops_total", telemetry.Labels{"mount": name, "op": "open"}).Value()
		written := reg.Counter("nvmecr_mount_bytes_written_total", l).Value()
		rej := reg.Counter("nvmecr_mount_quota_rejections_total", l).Value()
		adm := reg.Counter("nvmecr_mount_admission_rejections_total", l).Value()
		return []string{
			name, backend, itoa(int(opens)),
			fmt.Sprintf("%d", written), itoa(int(rej)), itoa(int(adm)),
			fmt.Sprintf("%v", rej+adm > 0),
		}, rej, adm
	}
	alphaRow, alphaRej, alphaAdm := row("alpha", "microfs/striped×2")
	betaRow, betaRej, _ := row("beta", "memory")
	gammaRow, gammaRej, gammaAdm := row("gamma", "memory+qos")
	if alphaRej != 0 || alphaAdm != 0 {
		return nil, fmt.Errorf("extmt: alpha recorded %d quota / %d admission rejections; isolation broken", alphaRej, alphaAdm)
	}
	if betaRej == 0 {
		return nil, fmt.Errorf("extmt: beta breached quota but recorded no rejection")
	}
	if gammaRej == 0 || gammaAdm == 0 {
		return nil, fmt.Errorf("extmt: gamma must record both rejection kinds: quota %d, admission %d", gammaRej, gammaAdm)
	}
	return &extMTResult{alpha: alphaRow, beta: betaRow, gamma: gammaRow}, nil
}
