// Package baseline reimplements the storage systems the paper compares
// against, on the same simulation substrate as NVMe-CR so that every
// difference in measured behaviour comes from the architectural axes the
// paper names: global-namespace serialization, kernel IO paths,
// consistent-hash load imbalance, metadata-server bottlenecks, and
// overlay software layers.
//
// The distributed baselines (OrangeFS, GlusterFS, Lustre) share one
// client/server skeleton parameterized by a placement strategy; Crail,
// raw SPDK, and the local kernel filesystems (ext4/XFS) have their own
// implementations.
package baseline

import (
	"fmt"
	"time"

	"github.com/nvme-cr/nvmecr/internal/fabric"
	"github.com/nvme-cr/nvmecr/internal/model"
	"github.com/nvme-cr/nvmecr/internal/nvme"
	"github.com/nvme-cr/nvmecr/internal/sim"
	"github.com/nvme-cr/nvmecr/internal/topology"
	"github.com/nvme-cr/nvmecr/internal/vfs"
)

// Server is one storage node's daemon: a CPU ingest path (serialized —
// the overlay software layers), a metadata service queue, and the SSD.
type Server struct {
	Node *topology.Node
	Dev  *nvme.Device

	ns    *nvme.Namespace
	queue *nvme.Queue
	cpu   *sim.Resource
	meta  *sim.Resource

	allocPtr    int64
	bytesStored int64
	metaBytes   int64
}

// MetaBytes returns the metadata bytes this server holds (Table I).
func (s *Server) MetaBytes() int64 { return s.metaBytes }

// Backend is the shared storage-side state for one distributed system.
type Backend struct {
	env     *sim.Env
	fab     *fabric.Fabric
	servers []*Server
}

// NewBackend builds servers over the given devices. Each server claims a
// namespace covering the whole device.
func NewBackend(env *sim.Env, fab *fabric.Fabric, nodes []*topology.Node, devs []*nvme.Device) (*Backend, error) {
	if len(nodes) != len(devs) || len(nodes) == 0 {
		return nil, fmt.Errorf("baseline: need matching non-empty nodes and devices (%d, %d)", len(nodes), len(devs))
	}
	b := &Backend{env: env, fab: fab}
	for i := range nodes {
		ns, err := devs[i].CreateNamespace(devs[i].Capacity())
		if err != nil {
			return nil, err
		}
		b.servers = append(b.servers, &Server{
			Node:  nodes[i],
			Dev:   devs[i],
			ns:    ns,
			queue: devs[i].AllocQueue(),
			cpu:   env.NewResource(1),
			meta:  env.NewResource(1),
		})
	}
	return b, nil
}

// Servers returns the backend's servers.
func (b *Backend) Servers() []*Server { return b.servers }

// ServerLoads returns stored bytes per server, for load-imbalance
// analysis.
func (b *Backend) ServerLoads() []float64 {
	out := make([]float64, len(b.servers))
	for i, s := range b.servers {
		out[i] = float64(s.bytesStored)
	}
	return out
}

// ingest runs `bytes` through a server's software layers and device:
// the serialized per-4KB CPU cost of the overlay stack, then the SSD
// write. The client process blocks for the whole round trip.
func (s *Server) ingest(p *sim.Proc, acct *vfs.Account, bytes int64, perBlock time.Duration, write bool) error {
	if bytes <= 0 {
		return nil
	}
	t0 := p.Now()
	if perBlock > 0 {
		s.cpu.Acquire(p)
		blocks := (bytes + 4*model.KB - 1) / (4 * model.KB)
		p.Sleep(time.Duration(blocks) * perBlock)
		s.cpu.Release()
	}
	op := nvme.OpRead
	off := int64(0)
	if write {
		op = nvme.OpWrite
		off = s.allocPtr
		if off+bytes > s.ns.Size() {
			return vfs.ErrNoSpace
		}
		s.allocPtr += bytes
		s.bytesStored += bytes
	}
	if _, err := s.ns.Submit(p, s.queue, nvme.Request{
		Op: op, Offset: off, Length: bytes, CmdUnit: 128 * model.KB,
	}); err != nil {
		return err
	}
	acct.Attribute(vfs.IOWait, p.Now()-t0)
	return nil
}

// metaOp serializes a metadata operation at the server's metadata
// service, charging the service time plus `extraBytes` of durable
// metadata written.
func (s *Server) metaOp(p *sim.Proc, acct *vfs.Account, service time.Duration, extraBytes int64) {
	t0 := p.Now()
	s.meta.Acquire(p)
	p.Sleep(service)
	s.meta.Release()
	s.metaBytes += extraBytes
	acct.Attribute(vfs.IOWait, p.Now()-t0)
}

// slice is a portion of a client write directed at one server.
type slice struct {
	server *Server
	bytes  int64
}

// placement decides where data and metadata live.
type placement interface {
	// dataServers splits a [off, off+n) write/read of path across
	// servers.
	dataServers(path string, off, n int64) []slice
	// metaServer returns the server serializing namespace operations
	// for path.
	metaServer(path string) *Server
}
