// Package mpi implements the small slice of MPI that NVMe-CR uses: a
// world of ranks mapped block-wise onto compute nodes, and communicators
// with Barrier, Allgather, Bcast, and Split. The paper's runtime leans on
// MPI only for identification and one-time coordination during
// initialization (building MPI_COMM_CR and partitioning SSDs); all
// subsequent control- and data-plane operations are coordination-free.
//
// Collectives run in virtual time on the simulation engine and charge a
// logarithmic latency term, the cost of a tree-based implementation on
// the modeled fabric.
package mpi

import (
	"fmt"
	"math/bits"
	"sort"
	"time"

	"github.com/nvme-cr/nvmecr/internal/sim"
	"github.com/nvme-cr/nvmecr/internal/topology"
)

// World is the MPI job: a fixed set of ranks placed on compute nodes.
type World struct {
	env     *sim.Env
	cluster *topology.Cluster
	nodes   []*topology.Node // rank -> node
	comm    *Comm
	// MsgLatency is the per-message latency charged inside
	// collectives (default 5µs, an EDR-class small-message time
	// including software).
	MsgLatency time.Duration

	// commCache interns communicators by canonical membership so that
	// every member of a Split ends up holding the same instance
	// (collective state lives on the instance). Safe without a lock:
	// the simulation engine serializes processes.
	commCache map[string]*Comm
}

// NewWorld creates a world of `size` ranks mapped block-wise onto the
// cluster's compute nodes (ranks 0..cores-1 on the first node, and so
// on), the default placement of mpirun on the paper's testbed.
func NewWorld(env *sim.Env, cluster *topology.Cluster, size int) (*World, error) {
	if size <= 0 {
		return nil, fmt.Errorf("mpi: world size %d", size)
	}
	var nodes []*topology.Node
	for _, n := range cluster.ComputeNodes() {
		for c := 0; c < n.Cores && len(nodes) < size; c++ {
			nodes = append(nodes, n)
		}
	}
	if len(nodes) < size {
		return nil, fmt.Errorf("mpi: %d ranks exceed %d compute slots", size, cluster.TotalComputeSlots())
	}
	w := &World{env: env, cluster: cluster, nodes: nodes, MsgLatency: 5 * time.Microsecond,
		commCache: make(map[string]*Comm)}
	ranks := make([]int, size)
	for i := range ranks {
		ranks[i] = i
	}
	w.comm = newComm(w, ranks)
	return w, nil
}

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.nodes) }

// Cluster returns the topology.
func (w *World) Cluster() *topology.Cluster { return w.cluster }

// Comm returns MPI_COMM_WORLD.
func (w *World) Comm() *Comm { return w.comm }

// Node returns the compute node hosting a rank.
func (w *World) Node(rank int) *topology.Node { return w.nodes[rank] }

// Launch starts every rank as a simulation process running body. The
// returned WaitGroup completes when all ranks have returned.
func (w *World) Launch(body func(r *Rank, p *sim.Proc)) *sim.WaitGroup {
	wg := w.env.NewWaitGroup()
	wg.Add(len(w.nodes))
	for i := range w.nodes {
		r := &Rank{world: w, id: i}
		w.env.Go(fmt.Sprintf("rank%d", i), func(p *sim.Proc) {
			defer wg.Done()
			body(r, p)
		})
	}
	return wg
}

// Rank is one MPI process.
type Rank struct {
	world *World
	id    int
}

// ID returns the rank number in MPI_COMM_WORLD.
func (r *Rank) ID() int { return r.id }

// Node returns the compute node this rank runs on.
func (r *Rank) Node() *topology.Node { return r.world.nodes[r.id] }

// Comm is a communicator: an ordered group of world ranks.
type Comm struct {
	world  *World
	ranks  []int       // communicator rank -> world rank
	index  map[int]int // world rank -> communicator rank
	gen    int
	gather *gatherState
}

type gatherState struct {
	arrived int
	vals    []any
	out     []any
	sig     *sim.Signal
}

func newComm(w *World, ranks []int) *Comm {
	c := &Comm{world: w, ranks: ranks, index: make(map[int]int, len(ranks))}
	for i, r := range ranks {
		c.index[r] = i
	}
	return c
}

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.ranks) }

// Rank returns r's rank within the communicator, or -1 if r is not a
// member.
func (c *Comm) Rank(r *Rank) int {
	if i, ok := c.index[r.id]; ok {
		return i
	}
	return -1
}

// WorldRanks returns the world ranks of the members, in communicator
// order. The slice must not be modified.
func (c *Comm) WorldRanks() []int { return c.ranks }

// latency returns the virtual-time cost of one collective across the
// communicator: log2(P) message steps.
func (c *Comm) latency() time.Duration {
	p := len(c.ranks)
	if p <= 1 {
		return 0
	}
	steps := bits.Len(uint(p - 1))
	return time.Duration(steps) * c.world.MsgLatency
}

// Allgather contributes v and returns every member's contribution in
// communicator-rank order. All members must call it; it blocks until the
// whole communicator has arrived. The returned slice is shared between
// members and must not be modified.
func (c *Comm) Allgather(p *sim.Proc, r *Rank, v any) ([]any, error) {
	me := c.Rank(r)
	if me < 0 {
		return nil, fmt.Errorf("mpi: rank %d is not in this communicator", r.id)
	}
	if len(c.ranks) == 1 {
		p.Sleep(c.latency())
		return []any{v}, nil
	}
	g := c.gather
	if g == nil {
		g = &gatherState{vals: make([]any, len(c.ranks)), sig: c.world.env.NewSignal()}
		c.gather = g
	}
	g.vals[me] = v
	g.arrived++
	if g.arrived == len(c.ranks) {
		// Detach so a member re-entering the next collective starts a
		// fresh generation; waiters keep their reference to g.
		c.gather = nil
		c.gen++
		g.out = g.vals
		p.Sleep(c.latency())
		g.sig.Fire()
		return g.out, nil
	}
	g.sig.Wait(p)
	return g.out, nil
}

// Barrier blocks until all members arrive.
func (c *Comm) Barrier(p *sim.Proc, r *Rank) error {
	_, err := c.Allgather(p, r, nil)
	return err
}

// Bcast returns the root's value on every member.
func (c *Comm) Bcast(p *sim.Proc, r *Rank, root int, v any) (any, error) {
	if root < 0 || root >= len(c.ranks) {
		return nil, fmt.Errorf("mpi: bcast root %d out of range", root)
	}
	var contrib any
	if c.Rank(r) == root {
		contrib = v
	}
	all, err := c.Allgather(p, r, contrib)
	if err != nil {
		return nil, err
	}
	return all[root], nil
}

// splitKey carries each member's Split arguments through the gather.
type splitKey struct {
	color int
	key   int
	world int
}

// Split partitions the communicator by color; members with the same
// color form a new communicator ordered by (key, world rank), exactly
// like MPI_Comm_split. The storage balancer uses this to build
// MPI_COMM_CR (one communicator per shared SSD).
func (c *Comm) Split(p *sim.Proc, r *Rank, color, key int) (*Comm, error) {
	me := c.Rank(r)
	if me < 0 {
		return nil, fmt.Errorf("mpi: rank %d is not in this communicator", r.id)
	}
	all, err := c.Allgather(p, r, splitKey{color: color, key: key, world: r.id})
	if err != nil {
		return nil, err
	}
	// Every member computes the same deterministic partition and then
	// interns it, so all members of a color share one Comm instance.
	byColor := map[int][]splitKey{}
	for _, v := range all {
		sk := v.(splitKey)
		byColor[sk.color] = append(byColor[sk.color], sk)
	}
	members := byColor[color]
	sort.Slice(members, func(i, j int) bool {
		if members[i].key != members[j].key {
			return members[i].key < members[j].key
		}
		return members[i].world < members[j].world
	})
	ranks := make([]int, len(members))
	for i, m := range members {
		ranks[i] = m.world
	}
	cacheKey := fmt.Sprintf("gen%d/%v", c.gen, ranks)
	if cached, ok := c.world.commCache[cacheKey]; ok {
		return cached, nil
	}
	sub := newComm(c.world, ranks)
	c.world.commCache[cacheKey] = sub
	return sub, nil
}
