// Package balancer implements NVMe-CR's load-aware storage balancer
// (paper §III-F): it allocates SSDs for a job from partner failure
// domains (topology-aware, fault-isolated from the compute nodes),
// assigns processes to SSDs round-robin for perfect load balance, and
// carves each SSD namespace into contiguous per-process segments.
package balancer

import (
	"fmt"
	"sort"

	"github.com/nvme-cr/nvmecr/internal/nvme"
	"github.com/nvme-cr/nvmecr/internal/topology"
)

// StorageDevice pairs an SSD with its hosting storage node.
type StorageDevice struct {
	Node   *topology.Node
	Device *nvme.Device
}

// Balancer holds the cluster inventory.
type Balancer struct {
	cluster *topology.Cluster
	devices []StorageDevice
}

// New builds a balancer over the cluster's storage inventory.
func New(cluster *topology.Cluster, devices []StorageDevice) (*Balancer, error) {
	if len(devices) == 0 {
		return nil, fmt.Errorf("balancer: no storage devices")
	}
	for _, d := range devices {
		if d.Node == nil || d.Device == nil {
			return nil, fmt.Errorf("balancer: device entry with nil node or device")
		}
		if d.Node.Kind != topology.Storage {
			return nil, fmt.Errorf("balancer: device on non-storage node %s", d.Node.Name)
		}
	}
	return &Balancer{cluster: cluster, devices: devices}, nil
}

// RecommendSSDs returns the SSD count for a job of the given size,
// keeping the process:SSD ratio within the paper's 56-112 sweet spot
// (measured to saturate NVMe SSD bandwidth).
func RecommendSSDs(procs int) int {
	if procs <= 0 {
		return 1
	}
	n := (procs + 55) / 56
	if n < 1 {
		n = 1
	}
	return n
}

// Allocation is the result of AllocateSSDs: the chosen devices plus the
// static process-to-SSD mapping.
type Allocation struct {
	SSDs []StorageDevice
	// RankSSD[rank] is the index into SSDs serving that rank.
	RankSSD []int
}

// SSDFor returns the device serving a rank.
func (a *Allocation) SSDFor(rank int) StorageDevice { return a.SSDs[a.RankSSD[rank]] }

// RanksPerSSD returns, for each SSD, the number of ranks mapped to it.
func (a *Allocation) RanksPerSSD() []int {
	out := make([]int, len(a.SSDs))
	for _, s := range a.RankSSD {
		out[s]++
	}
	return out
}

// AllocateSSDs chooses `want` SSDs for a job whose ranks run on
// rankNodes (rank -> compute node), then maps ranks to SSDs round-robin.
//
// Device selection is greedy by communication cost: candidate SSDs are
// considered in order of (partner-domain hop distance from the job's
// compute domains, storage node ID), and devices whose failure domain
// overlaps any compute domain are used only as a last resort.
func (b *Balancer) AllocateSSDs(rankNodes []*topology.Node, want int) (*Allocation, error) {
	if len(rankNodes) == 0 {
		return nil, fmt.Errorf("balancer: job has no ranks")
	}
	if want <= 0 {
		want = RecommendSSDs(len(rankNodes))
	}
	if want > len(b.devices) {
		return nil, fmt.Errorf("balancer: job wants %d SSDs, inventory has %d", want, len(b.devices))
	}
	// Compute the set of compute failure domains for the job.
	computeDomains := map[int]bool{}
	for _, n := range rankNodes {
		computeDomains[n.FailureDomain()] = true
	}
	// Partner-domain preference: union of each compute domain's
	// partner list, keeping the minimum position (closest first).
	pref := map[int]int{}
	for d := range computeDomains {
		for pos, partner := range b.cluster.PartnerDomains(d) {
			if cur, ok := pref[partner]; !ok || pos < cur {
				pref[partner] = pos
			}
		}
	}
	type candidate struct {
		dev      StorageDevice
		priority int // lower is better
		overlap  bool
	}
	cands := make([]candidate, 0, len(b.devices))
	for _, d := range b.devices {
		dom := d.Node.FailureDomain()
		c := candidate{dev: d}
		if computeDomains[dom] {
			// Same failure domain as the application: checkpoint data
			// would die with the process. Last resort only.
			c.overlap = true
			c.priority = 1 << 20
		} else if pos, ok := pref[dom]; ok {
			c.priority = pos
		} else {
			c.priority = 1 << 10
		}
		cands = append(cands, c)
	}
	sort.SliceStable(cands, func(i, j int) bool {
		if cands[i].priority != cands[j].priority {
			return cands[i].priority < cands[j].priority
		}
		return cands[i].dev.Node.ID < cands[j].dev.Node.ID
	})
	chosen := make([]StorageDevice, want)
	for i := 0; i < want; i++ {
		chosen[i] = cands[i].dev
	}
	alloc := &Allocation{SSDs: chosen, RankSSD: make([]int, len(rankNodes))}
	for rank := range rankNodes {
		alloc.RankSSD[rank] = rank % want
	}
	return alloc, nil
}

// Partition describes one rank's contiguous segment of an SSD namespace.
type Partition struct {
	Namespace *nvme.Namespace
	Base      int64
	Size      int64
}

// PartitionNamespace divides a namespace between `ranks` processes,
// giving the process with communicator rank `idx` its contiguous
// segment. Segments are hugeblock-aligned to keep block math exact.
func PartitionNamespace(ns *nvme.Namespace, ranks, idx int, align int64) (Partition, error) {
	if ranks <= 0 || idx < 0 || idx >= ranks {
		return Partition{}, fmt.Errorf("balancer: partition index %d of %d", idx, ranks)
	}
	if align <= 0 {
		align = 1
	}
	per := ns.Size() / int64(ranks)
	per = per / align * align
	if per <= 0 {
		return Partition{}, fmt.Errorf("balancer: namespace of %d bytes too small for %d ranks", ns.Size(), ranks)
	}
	return Partition{Namespace: ns, Base: int64(idx) * per, Size: per}, nil
}
