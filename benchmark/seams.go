package main

import (
	"github.com/nvme-cr/nvmecr/internal/nvmeof"
	"github.com/nvme-cr/nvmecr/internal/plane"
	"github.com/nvme-cr/nvmecr/internal/sim"
	"github.com/nvme-cr/nvmecr/internal/vfs"
	"github.com/nvme-cr/nvmecr/internal/wal"
)

// The wrappers below sit at the public seams between layers and time
// every call that crosses them. Both passes run them; in the untraced
// pass their seams are nil and they only forward.

// backendSeam wraps a vfs.Backend: the Namespace, where the calls are
// the benchmark's own, or a rank's microfs.Instance inside its mount.
type backendSeam struct {
	inner vfs.Backend
	s     *seam
	calls int64 // backend and file calls made through this seam
}

func (b *backendSeam) Mkdir(p *sim.Proc, path string, mode uint32) error {
	b.calls++
	id := b.s.begin(opMkdir)
	err := b.inner.Mkdir(p, path, mode)
	b.s.end(id)
	return err
}

func (b *backendSeam) Open(p *sim.Proc, path string, flags vfs.OpenFlags, mode uint32) (vfs.File, error) {
	b.calls++
	id := b.s.begin(opOpen)
	f, err := b.inner.Open(p, path, flags, mode)
	b.s.end(id)
	if err != nil {
		return nil, err
	}
	return &fileSeam{File: f, b: b}, nil
}

func (b *backendSeam) Unlink(p *sim.Proc, path string) error {
	b.calls++
	id := b.s.begin(opUnlink)
	err := b.inner.Unlink(p, path)
	b.s.end(id)
	return err
}

func (b *backendSeam) Rename(p *sim.Proc, oldPath, newPath string) error {
	b.calls++
	id := b.s.begin(opRename)
	err := b.inner.Rename(p, oldPath, newPath)
	b.s.end(id)
	return err
}

func (b *backendSeam) ReadDir(p *sim.Proc, path string) ([]vfs.FileInfo, error) {
	b.calls++
	id := b.s.begin(opReadDir)
	out, err := b.inner.ReadDir(p, path)
	b.s.end(id)
	return out, err
}

func (b *backendSeam) Stat(p *sim.Proc, path string) (vfs.FileInfo, error) {
	b.calls++
	id := b.s.begin(opStat)
	info, err := b.inner.Stat(p, path)
	b.s.end(id)
	return info, err
}

// fileSeam wraps a handle its backendSeam opened. WriteN, ReadN and
// SeekTo pass through untimed; the workloads do not call them.
type fileSeam struct {
	vfs.File
	b *backendSeam
}

func (f *fileSeam) Write(p *sim.Proc, data []byte) (int, error) {
	f.b.calls++
	id := f.b.s.begin(opWrite)
	n, err := f.File.Write(p, data)
	f.b.s.end(id)
	return n, err
}

func (f *fileSeam) Read(p *sim.Proc, buf []byte) (int, error) {
	f.b.calls++
	id := f.b.s.begin(opRead)
	n, err := f.File.Read(p, buf)
	f.b.s.end(id)
	return n, err
}

func (f *fileSeam) Fsync(p *sim.Proc) error {
	f.b.calls++
	id := f.b.s.begin(opFsync)
	err := f.File.Fsync(p)
	f.b.s.end(id)
	return err
}

func (f *fileSeam) Close(p *sim.Proc) error {
	f.b.calls++
	id := f.b.s.begin(opClose)
	err := f.File.Close(p)
	f.b.s.end(id)
	return err
}

// walSeam is microfs.Config.WrapLogWrite: it times the WAL's flush
// callback, the one point where the log reaches the device.
func walSeam(s *seam) func(wal.WriteFunc) wal.WriteFunc {
	return func(write wal.WriteFunc) wal.WriteFunc {
		return func(off int64, data []byte) error {
			id := s.begin(opFlush)
			err := write(off, data)
			s.end(id)
			return err
		}
	}
}

// planeSeam wraps the plane microfs sits on: a StripedPlane or a
// TCPPlane. microfs hands every plane call its simulation process; the
// real transport has no use for one, and StripedPlane fans out
// concurrently only without one, so the seam passes nil below.
type planeSeam struct {
	inner plane.Plane
	s     *seam
	wrote int64 // bytes of every Write
}

func (w *planeSeam) Write(_ *sim.Proc, off, length int64, data []byte, cmdUnit int64) error {
	w.wrote += length
	id := w.s.begin(opWrite)
	err := w.inner.Write(nil, off, length, data, cmdUnit)
	w.s.end(id)
	return err
}

func (w *planeSeam) Read(_ *sim.Proc, off, length int64, cmdUnit int64) ([]byte, error) {
	id := w.s.begin(opRead)
	out, err := w.inner.Read(nil, off, length, cmdUnit)
	w.s.end(id)
	return out, err
}

func (w *planeSeam) Flush(*sim.Proc) error {
	id := w.s.begin(opFlush)
	err := w.inner.Flush(nil)
	w.s.end(id)
	return err
}

func (w *planeSeam) Size() int64 { return w.inner.Size() }

// childSeam wraps one TCPPlane child of a StripedPlane. It forwards
// WriteV, so the striped plane keeps its one-gather-command-per-child
// path instead of falling back to a write per stripe unit.
type childSeam struct {
	planeSeam
	vw plane.VectorWriter
}

func (w *childSeam) WriteV(_ *sim.Proc, off int64, bufs [][]byte) error {
	id := w.s.begin(opWriteV)
	err := w.vw.WriteV(nil, off, bufs)
	w.s.end(id)
	return err
}

// queueSeam wraps the shared HostPool as one (rank, child)'s
// nvmeof.Queue. It forwards WriteAtV, so TCPPlane.WriteV keeps its
// zero-copy path instead of staging the gather list.
type queueSeam struct {
	nvmeof.Queue
	vq       nvmeof.VectorQueue
	s        *seam
	bytesOut int64 // payload bytes of every write command issued
}

func (q *queueSeam) WriteAt(off int64, data []byte) error {
	q.bytesOut += int64(len(data))
	id := q.s.begin(opWrite)
	err := q.Queue.WriteAt(off, data)
	q.s.end(id)
	return err
}

func (q *queueSeam) WriteAtV(off int64, bufs [][]byte) error {
	for _, b := range bufs {
		q.bytesOut += int64(len(b))
	}
	id := q.s.begin(opWriteV)
	err := q.vq.WriteAtV(off, bufs)
	q.s.end(id)
	return err
}

func (q *queueSeam) ReadAt(off, length int64) ([]byte, error) {
	id := q.s.begin(opRead)
	out, err := q.Queue.ReadAt(off, length)
	q.s.end(id)
	return out, err
}

func (q *queueSeam) Flush() error {
	id := q.s.begin(opFlush)
	err := q.Queue.Flush()
	q.s.end(id)
	return err
}

var (
	_ vfs.Backend        = (*backendSeam)(nil)
	_ vfs.File           = (*fileSeam)(nil)
	_ plane.Plane        = (*planeSeam)(nil)
	_ plane.VectorWriter = (*childSeam)(nil)
	_ nvmeof.Queue       = (*queueSeam)(nil)
	_ nvmeof.VectorQueue = (*queueSeam)(nil)
	_ plane.VectorWriter = (*nvmeof.TCPPlane)(nil)
	_ nvmeof.VectorQueue = (*nvmeof.HostPool)(nil)
)
