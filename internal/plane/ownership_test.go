package plane_test

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/nvme-cr/nvmecr/internal/fabric"
	"github.com/nvme-cr/nvmecr/internal/faults"
	"github.com/nvme-cr/nvmecr/internal/kernelio"
	"github.com/nvme-cr/nvmecr/internal/model"
	"github.com/nvme-cr/nvmecr/internal/nvme"
	"github.com/nvme-cr/nvmecr/internal/nvmeof"
	"github.com/nvme-cr/nvmecr/internal/plane"
	"github.com/nvme-cr/nvmecr/internal/sim"
	"github.com/nvme-cr/nvmecr/internal/spdk"
	"github.com/nvme-cr/nvmecr/internal/topology"
	"github.com/nvme-cr/nvmecr/internal/vfs"
)

// ownershipSize is every plane's size here: room for a 1 MiB read
// anywhere in the first half.
const ownershipSize = 2 * model.MB

// ownershipReads are the reads each plane answers twice: a sub-unit
// read, a sequential run of small reads (a TCPPlane cuts the later ones
// off a read-ahead window), a one-capsule 1 MiB read and a read across
// stripe units.
var ownershipReads = []struct{ off, n int64 }{
	{0, 4 * model.KB},
	{4 * model.KB, 16 * model.KB},
	{20 * model.KB, 16 * model.KB},
	{36 * model.KB, 16 * model.KB},
	{52 * model.KB, 16 * model.KB},
	{0, 1 * model.MB},
	{64 * model.KB, 256 * model.KB},
}

// checkOwnership writes a pattern over the whole plane and reads it back
// twice. After every read it scribbles over the result, appends to it
// and recycles it, as a caller that owns the result may, then takes a
// buffer of the same size from the free list and scribbles over that;
// the plane must still return the pattern to every read after it. A
// plane whose result aliases anything it keeps — its backing store, a
// cache, another result — fails.
func checkOwnership(p *sim.Proc, pl plane.Plane) error {
	pattern := make([]byte, ownershipSize)
	for i := range pattern {
		pattern[i] = byte(i*7 + i>>12)
	}
	if err := pl.Write(p, 0, ownershipSize, pattern, 0); err != nil {
		return err
	}
	for pass := 0; pass < 2; pass++ {
		for _, r := range ownershipReads {
			got, err := pl.Read(p, r.off, r.n, 0)
			if err != nil {
				return err
			}
			if !bytes.Equal(got, pattern[r.off:r.off+r.n]) {
				return fmt.Errorf("pass %d: read [%d,+%d) does not return the pattern: a result aliases bytes the plane keeps", pass, r.off, r.n)
			}
			for i := range got {
				got[i] = 0xEE
			}
			_ = append(got, 0xEE, 0xEE, 0xEE, 0xEE)
			// Given back, and written again by its next holder.
			plane.Recycle(got)
			next := plane.TakeBuffer(len(got))
			for i := range next {
				next[i] = 0xDD
			}
		}
	}
	return nil
}

// backingPlane is the break-demo: a plane whose Read returns a slice of
// its own store. checkOwnership must fail it.
type backingPlane struct{ mem []byte }

func (b *backingPlane) Write(p *sim.Proc, off, length int64, data []byte, cmdUnit int64) error {
	copy(b.mem[off:off+length], data)
	return nil
}

func (b *backingPlane) Read(p *sim.Proc, off, length int64, cmdUnit int64) ([]byte, error) {
	return b.mem[off : off+length], nil
}

func (b *backingPlane) Flush(p *sim.Proc) error { return nil }
func (b *backingPlane) Size() int64             { return int64(len(b.mem)) }

// TestReadResultOwnership is the conformance test of plane.Plane.Read's
// ownership rule — a result belongs to its caller alone — for every
// in-tree plane that returns payloads: the simulator's spdk, kernelio,
// RemotePlane and faults.CrashPlane, and over loopback targets TCPPlane
// (one-capsule and windowed reads) and StripedPlane (RAID-0 and
// mirrored). Break-demo, run as the last case: a plane that returns its
// backing slice is caught.
func TestReadResultOwnership(t *testing.T) {
	for _, tc := range []struct {
		name  string
		plane func(env *sim.Env) plane.Plane
	}{
		{"spdk", func(env *sim.Env) plane.Plane { return spdkPlane(t, env) }},
		{"kernelio", func(env *sim.Env) plane.Plane {
			return kernelio.Wrap(spdkPlane(t, env), model.Default().Kernel, &vfs.Account{}, false)
		}},
		{"RemotePlane", func(env *sim.Env) plane.Plane {
			cl, err := topology.New(topology.PaperTestbed())
			if err != nil {
				t.Fatal(err)
			}
			fab := fabric.New(env, cl, model.Default().Net)
			return nvmeof.NewRemotePlane(spdkPlane(t, env), fab, cl.ComputeNodes()[0], cl.StorageNodes()[0], &vfs.Account{})
		}},
		{"CrashPlane", func(env *sim.Env) plane.Plane {
			return faults.NewCrashPlane(spdkPlane(t, env), faults.NewPlan(1), 0)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := sim.NewEnv()
			pl := tc.plane(env)
			env.Go("owner", func(p *sim.Proc) {
				if err := checkOwnership(p, pl); err != nil {
					t.Error(err)
				}
			})
			if _, err := env.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}

	for _, tc := range []struct {
		name     string
		replicas int // 0: the plain TCPPlane
		children int
	}{
		{"TCPPlane", 0, 1},
		{"StripedPlane RAID-0", 1, 2},
		{"StripedPlane mirror", 2, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			children := tcpPlanes(t, tc.children)
			pl := children[0]
			if tc.replicas > 0 {
				s, err := nvmeof.NewMirroredPlane(children, 64*model.KB, tc.replicas)
				if err != nil {
					t.Fatal(err)
				}
				pl = s
			}
			if err := checkOwnership(nil, pl); err != nil {
				t.Error(err)
			}
		})
	}

	t.Run("break-demo: backing slice", func(t *testing.T) {
		if checkOwnership(nil, &backingPlane{mem: make([]byte, ownershipSize)}) == nil {
			t.Error("a plane that returns its backing slice passed the ownership check")
		}
	})
}

// spdkPlane is a capturing simulated SSD partition of ownershipSize.
func spdkPlane(t *testing.T, env *sim.Env) *spdk.Plane {
	params := model.Default()
	ns, err := nvme.New(env, "ssd", params.SSD, true).CreateNamespace(ownershipSize)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := spdk.NewPlane(ns, 0, ns.Size(), params.Host, &vfs.Account{})
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// tcpPlanes opens n TCPPlanes of ownershipSize, each on a loopback
// target of its own.
func tcpPlanes(t *testing.T, n int) []plane.Plane {
	out := make([]plane.Plane, n)
	for i := range out {
		tgt := nvmeof.NewTarget()
		if err := tgt.AddNamespace(1, nvmeof.NewMemNamespace(ownershipSize)); err != nil {
			t.Fatal(err)
		}
		addr, err := tgt.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tgt.Close() })
		pool, err := nvmeof.DialPool(addr, 1, nvmeof.PoolConfig{QueuePairs: 1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { pool.Close() })
		if out[i], err = nvmeof.NewTCPPlane(pool, 0, ownershipSize); err != nil {
			t.Fatal(err)
		}
	}
	return out
}
