package nvmeof

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/nvme-cr/nvmecr/internal/microfs"
	"github.com/nvme-cr/nvmecr/internal/model"
	"github.com/nvme-cr/nvmecr/internal/plane"
	"github.com/nvme-cr/nvmecr/internal/sim"
	"github.com/nvme-cr/nvmecr/internal/vfs"
)

// cutPlane is a mirror member that the head's writes stop reaching once
// cut: the head died after sending its last command to the other
// replica only.
type cutPlane struct {
	*memPlane
	cut bool
}

func (c *cutPlane) Write(p *sim.Proc, off, length int64, data []byte, cmdUnit int64) error {
	if c.cut {
		return nil
	}
	return c.memPlane.Write(p, off, length, data, cmdUnit)
}

// TestMirrorSurvivesHeadCrash: the head (the process running microfs
// over a two-replica mirror) dies mid-operation, so its last operation
// reaches replica A only. The next life recovers from A and
// acknowledges /d on both replicas; a third life that recovers from B
// alone (A lost) must still find /d. Without a repair at mount, B's log
// keeps a hole where /c's record went to A only, and replay on B stops
// at that hole, before /d's record. Before Recover repaired what it
// reads, this test failed with:
//
//	headcrash_test.go:68: life 3: acknowledged /d lost after recovering from the other replica: vfs: file does not exist
func TestMirrorSurvivesHeadCrash(t *testing.T) {
	const memberSize = 2 * model.MB
	a := &cutPlane{memPlane: newMemPlane(memberSize, true)}
	b := &cutPlane{memPlane: newMemPlane(memberSize, true)}
	want := bytes.Repeat([]byte("acknowledged"), 100*1024/12)

	// life runs one life of the head over a fresh mirror of a and b,
	// with the members in down marked down.
	life := func(name string, down []int, body func(p *sim.Proc, inst *microfs.Instance) error) {
		t.Helper()
		sp, err := NewMirroredPlane([]plane.Plane{a, b}, 64*model.KB, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range down {
			if err := sp.SetChildDown(m); err != nil {
				t.Fatal(err)
			}
		}
		env := sim.NewEnv()
		env.Go(name, func(p *sim.Proc) {
			inst, err := microfs.New(env, microfs.Config{
				Plane: sp, Features: microfs.AllFeatures(), LogBytes: 256 * model.KB, SnapBytes: 512 * model.KB,
			})
			if err == nil {
				err = body(p, inst)
			}
			if err != nil {
				t.Errorf("%s: %v", name, err)
			}
		})
		if _, err := env.Run(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if t.Failed() {
			t.FailNow()
		}
	}
	writeFile := func(p *sim.Proc, inst *microfs.Instance, path string) error {
		f, err := inst.Open(p, path, vfs.O_WRONLY|vfs.O_CREATE|vfs.O_EXCL, 0o644)
		if err != nil {
			return err
		}
		if _, err := f.Write(p, want); err != nil {
			return err
		}
		if err := f.Fsync(p); err != nil {
			return err
		}
		return f.Close(p)
	}
	readFile := func(p *sim.Proc, inst *microfs.Instance, path string) error {
		f, err := inst.Open(p, path, vfs.O_RDONLY, 0)
		if err != nil {
			return err
		}
		got := make([]byte, len(want)+1)
		n, err := f.Read(p, got)
		if err != nil {
			return err
		}
		if !bytes.Equal(got[:n], want) {
			return fmt.Errorf("%s reads %d bytes other than the %d written", path, n, len(want))
		}
		return f.Close(p)
	}

	life("life 1", nil, func(p *sim.Proc, inst *microfs.Instance) error {
		if err := writeFile(p, inst, "/a"); err != nil {
			return err
		}
		b.cut = true // the head dies while /c's create is in flight
		_, err := inst.Open(p, "/c", vfs.O_WRONLY|vfs.O_CREATE|vfs.O_EXCL, 0o644)
		return err
	})
	b.cut = false
	life("life 2", nil, func(p *sim.Proc, inst *microfs.Instance) error {
		if err := inst.Recover(p); err != nil {
			return err
		}
		return writeFile(p, inst, "/d")
	})
	life("life 3", []int{0}, func(p *sim.Proc, inst *microfs.Instance) error {
		if err := inst.Recover(p); err != nil {
			return err
		}
		if err := readFile(p, inst, "/a"); err != nil {
			return err
		}
		if err := readFile(p, inst, "/d"); err != nil {
			return fmt.Errorf("acknowledged /d lost after recovering from the other replica: %w", err)
		}
		return nil
	})
}
