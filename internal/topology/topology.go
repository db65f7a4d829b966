// Package topology models a disaggregated HPC cluster: compute and
// storage nodes grouped into racks and power-distribution units (PDUs),
// connected by a switch hierarchy. The storage balancer consumes this
// model to derive failure domains, partner domains, and hop distances,
// exactly the information the paper's balancer obtains from the job
// scheduler's topology database.
package topology

import (
	"fmt"
	"sort"
)

// NodeKind distinguishes compute from storage nodes.
type NodeKind int

const (
	// Compute nodes run application processes.
	Compute NodeKind = iota
	// Storage nodes host NVMe SSDs served over NVMe-oF.
	Storage
)

func (k NodeKind) String() string {
	switch k {
	case Compute:
		return "compute"
	case Storage:
		return "storage"
	default:
		return fmt.Sprintf("NodeKind(%d)", int(k))
	}
}

// Node is a single cluster host.
type Node struct {
	ID   int
	Name string
	Kind NodeKind
	Rack int // rack identifier; nodes in one rack share a ToR switch
	PDU  int // power distribution unit; shared-power failure domain
	// Cores is the number of usable cores (application processes for
	// compute nodes, service threads for storage nodes).
	Cores int
	// SSDs is the number of NVMe devices hosted (storage nodes only).
	SSDs int
}

// Cluster is an immutable description of the machine.
type Cluster struct {
	nodes   []*Node
	byName  map[string]*Node
	racks   map[int][]*Node
	domains map[int][]*Node // failure domain id -> members
}

// Config describes a regular two-rack disaggregated cluster like the
// paper's testbed: one rack of compute nodes and one rack of storage
// nodes, one PDU per rack.
type Config struct {
	ComputeNodes   int // number of compute nodes (paper: 16)
	CoresPerNode   int // cores per compute node (paper: 28)
	StorageNodes   int // number of storage nodes (paper: 8)
	SSDsPerStorage int // SSDs per storage node (paper: 1)
	ComputeRacks   int // racks holding compute nodes (paper: 1)
	StorageRacks   int // racks holding storage nodes (paper: 1)
	StorageCores   int // cores per storage node (paper: 28)
}

// PaperTestbed returns the configuration of the paper's local cluster:
// 16 compute nodes x 28 cores, 8 storage nodes each with one P4800X SSD,
// one rack per side.
func PaperTestbed() Config {
	return Config{
		ComputeNodes:   16,
		CoresPerNode:   28,
		StorageNodes:   8,
		SSDsPerStorage: 1,
		ComputeRacks:   1,
		StorageRacks:   1,
		StorageCores:   28,
	}
}

// New builds a Cluster from the configuration. Nodes are spread evenly
// across the requested racks; each rack, behind its one PDU, forms one
// failure domain.
func New(cfg Config) (*Cluster, error) {
	if cfg.ComputeNodes <= 0 || cfg.StorageNodes <= 0 {
		return nil, fmt.Errorf("topology: need at least one compute and one storage node (got %d, %d)",
			cfg.ComputeNodes, cfg.StorageNodes)
	}
	if cfg.ComputeRacks <= 0 {
		cfg.ComputeRacks = 1
	}
	if cfg.StorageRacks <= 0 {
		cfg.StorageRacks = 1
	}
	if cfg.CoresPerNode <= 0 {
		cfg.CoresPerNode = 1
	}
	if cfg.SSDsPerStorage <= 0 {
		cfg.SSDsPerStorage = 1
	}
	if cfg.StorageCores <= 0 {
		cfg.StorageCores = cfg.CoresPerNode
	}
	c := &Cluster{
		byName:  make(map[string]*Node),
		racks:   make(map[int][]*Node),
		domains: make(map[int][]*Node),
	}
	id := 0
	rack := 0
	addNodes := func(n int, racks int, kind NodeKind, prefix string, cores, ssds int) {
		perRack := (n + racks - 1) / racks
		for i := 0; i < n; i++ {
			r := rack + i/perRack
			node := &Node{
				ID:    id,
				Name:  fmt.Sprintf("%s%02d", prefix, i),
				Kind:  kind,
				Rack:  r,
				PDU:   r,
				Cores: cores,
				SSDs:  ssds,
			}
			c.nodes = append(c.nodes, node)
			c.byName[node.Name] = node
			c.racks[r] = append(c.racks[r], node)
			id++
		}
		rack += racks
	}
	addNodes(cfg.ComputeNodes, cfg.ComputeRacks, Compute, "cn", cfg.CoresPerNode, 0)
	addNodes(cfg.StorageNodes, cfg.StorageRacks, Storage, "sn", cfg.StorageCores, cfg.SSDsPerStorage)
	for _, n := range c.nodes {
		d := n.FailureDomain()
		c.domains[d] = append(c.domains[d], n)
	}
	return c, nil
}

// FailureDomain returns the node's failure domain identifier. Nodes that
// share a rack or a PDU share hardware and therefore a domain; we fold
// both into a single integer.
func (n *Node) FailureDomain() int { return n.Rack*1_000_000 + n.PDU }

// Nodes returns all nodes in ID order. The returned slice must not be
// modified.
func (c *Cluster) Nodes() []*Node { return c.nodes }

// Node returns the node with the given ID.
func (c *Cluster) Node(id int) (*Node, error) {
	if id < 0 || id >= len(c.nodes) {
		return nil, fmt.Errorf("topology: no node with id %d", id)
	}
	return c.nodes[id], nil
}

// NodeByName returns the node with the given name.
func (c *Cluster) NodeByName(name string) (*Node, error) {
	n, ok := c.byName[name]
	if !ok {
		return nil, fmt.Errorf("topology: no node named %q", name)
	}
	return n, nil
}

// ComputeNodes returns the compute nodes in ID order.
func (c *Cluster) ComputeNodes() []*Node { return c.ofKind(Compute) }

// StorageNodes returns the storage nodes in ID order.
func (c *Cluster) StorageNodes() []*Node { return c.ofKind(Storage) }

func (c *Cluster) ofKind(k NodeKind) []*Node {
	var out []*Node
	for _, n := range c.nodes {
		if n.Kind == k {
			out = append(out, n)
		}
	}
	return out
}

// Hops returns the number of switch hops between two nodes: 0 for the
// same node, 2 within a rack (node-ToR-node), and 4 across racks
// (node-ToR-spine-ToR-node). This matches the two-tier fat tree of the
// paper's testbed.
func (c *Cluster) Hops(a, b *Node) int {
	switch {
	case a.ID == b.ID:
		return 0
	case a.Rack == b.Rack:
		return 2
	default:
		return 4
	}
}

// FailureDomains returns the sorted list of failure domain identifiers.
func (c *Cluster) FailureDomains() []int {
	out := make([]int, 0, len(c.domains))
	for d := range c.domains {
		out = append(out, d)
	}
	sort.Ints(out)
	return out
}

// DomainMembers returns the nodes in a failure domain, in ID order.
func (c *Cluster) DomainMembers(domain int) []*Node { return c.domains[domain] }

// PartnerDomains returns, for the given failure domain, all other
// domains sorted by switch-hop distance (closest first) and then by
// domain id for determinism. These are the candidate locations for
// checkpoint data belonging to processes in the domain.
func (c *Cluster) PartnerDomains(domain int) []int {
	members := c.domains[domain]
	if len(members) == 0 {
		return nil
	}
	type cand struct {
		id   int
		hops int
	}
	var cands []cand
	for d, nodes := range c.domains {
		if d == domain {
			continue
		}
		// Distance between domains: minimum hops between any members.
		min := 1 << 30
		for _, a := range members {
			for _, b := range nodes {
				if h := c.Hops(a, b); h < min {
					min = h
				}
			}
		}
		cands = append(cands, cand{id: d, hops: min})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].hops != cands[j].hops {
			return cands[i].hops < cands[j].hops
		}
		return cands[i].id < cands[j].id
	})
	out := make([]int, len(cands))
	for i, cd := range cands {
		out[i] = cd.id
	}
	return out
}

// SeparateDomains reports whether the two nodes live in distinct failure
// domains, i.e. whether checkpoint data on b survives a domain failure
// taking out a.
func (c *Cluster) SeparateDomains(a, b *Node) bool {
	return a.FailureDomain() != b.FailureDomain()
}

// TotalComputeSlots returns the total number of application process
// slots (compute cores).
func (c *Cluster) TotalComputeSlots() int {
	total := 0
	for _, n := range c.ComputeNodes() {
		total += n.Cores
	}
	return total
}

// TotalSSDs returns the number of SSDs across all storage nodes.
func (c *Cluster) TotalSSDs() int {
	total := 0
	for _, n := range c.StorageNodes() {
		total += n.SSDs
	}
	return total
}
