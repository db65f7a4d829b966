package topology

import (
	"testing"
	"testing/quick"
)

func TestPaperTestbedShape(t *testing.T) {
	c, err := New(PaperTestbed())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(c.ComputeNodes()); got != 16 {
		t.Errorf("compute nodes = %d, want 16", got)
	}
	if got := len(c.StorageNodes()); got != 8 {
		t.Errorf("storage nodes = %d, want 8", got)
	}
	if got := c.TotalComputeSlots(); got != 448 {
		t.Errorf("compute slots = %d, want 448", got)
	}
	if got := c.TotalSSDs(); got != 8 {
		t.Errorf("SSDs = %d, want 8", got)
	}
}

func TestComputeAndStorageInSeparateDomains(t *testing.T) {
	c, err := New(PaperTestbed())
	if err != nil {
		t.Fatal(err)
	}
	for _, cn := range c.ComputeNodes() {
		for _, sn := range c.StorageNodes() {
			if !c.SeparateDomains(cn, sn) {
				t.Fatalf("compute %s and storage %s share a failure domain", cn.Name, sn.Name)
			}
		}
	}
}

func TestHops(t *testing.T) {
	c, err := New(PaperTestbed())
	if err != nil {
		t.Fatal(err)
	}
	cns := c.ComputeNodes()
	sns := c.StorageNodes()
	if got := c.Hops(cns[0], cns[0]); got != 0 {
		t.Errorf("self hops = %d, want 0", got)
	}
	if got := c.Hops(cns[0], cns[1]); got != 2 {
		t.Errorf("intra-rack hops = %d, want 2", got)
	}
	if got := c.Hops(cns[0], sns[0]); got != 4 {
		t.Errorf("cross-rack hops = %d, want 4", got)
	}
}

func TestPartnerDomainsSortedByDistance(t *testing.T) {
	cfg := PaperTestbed()
	cfg.ComputeRacks = 2
	cfg.StorageRacks = 2
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cn := c.ComputeNodes()[0]
	partners := c.PartnerDomains(cn.FailureDomain())
	if len(partners) != 3 {
		t.Fatalf("partners = %d domains, want 3", len(partners))
	}
	// All partner domains must differ from the source domain.
	for _, p := range partners {
		if p == cn.FailureDomain() {
			t.Errorf("partner list includes the source domain %d", p)
		}
	}
}

func TestNodeLookup(t *testing.T) {
	c, err := New(PaperTestbed())
	if err != nil {
		t.Fatal(err)
	}
	n, err := c.NodeByName("cn00")
	if err != nil {
		t.Fatal(err)
	}
	if n.Kind != Compute {
		t.Errorf("cn00 kind = %v, want compute", n.Kind)
	}
	if _, err := c.NodeByName("nope"); err == nil {
		t.Error("lookup of missing node succeeded")
	}
	if _, err := c.Node(-1); err == nil {
		t.Error("lookup of negative id succeeded")
	}
	got, err := c.Node(n.ID)
	if err != nil || got != n {
		t.Errorf("Node(%d) = %v, %v; want cn00", n.ID, got, err)
	}
}

func TestInvalidConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := New(Config{ComputeNodes: 1}); err == nil {
		t.Error("config without storage accepted")
	}
}

// Property: for arbitrary cluster shapes, every node belongs to exactly
// one failure domain, and PartnerDomains never includes the source.
func TestPropertyDomainsPartition(t *testing.T) {
	f := func(cnRaw, snRaw, rackRaw uint8) bool {
		cfg := Config{
			ComputeNodes:   int(cnRaw%20) + 1,
			StorageNodes:   int(snRaw%10) + 1,
			ComputeRacks:   int(rackRaw%3) + 1,
			StorageRacks:   int(rackRaw%2) + 1,
			CoresPerNode:   4,
			SSDsPerStorage: 1,
		}
		c, err := New(cfg)
		if err != nil {
			return false
		}
		seen := 0
		for _, d := range c.FailureDomains() {
			members := c.DomainMembers(d)
			seen += len(members)
			for _, m := range members {
				if m.FailureDomain() != d {
					return false
				}
			}
			for _, p := range c.PartnerDomains(d) {
				if p == d {
					return false
				}
			}
		}
		return seen == len(c.Nodes())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
