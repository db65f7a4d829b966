package campaign

import (
	"strings"
	"testing"
	"time"

	"github.com/nvme-cr/nvmecr/internal/qos"
	"github.com/nvme-cr/nvmecr/internal/telemetry"
	"github.com/nvme-cr/nvmecr/internal/workload"
)

// campaignSeeds is the seeded iteration count: 100 by default, trimmed
// in -short to fit the verify.sh tier-1 budget.
func campaignSeeds(t *testing.T) int {
	if testing.Short() {
		return 10
	}
	return 100
}

// The canonical property campaign: victim, sustained aggressor,
// bursty, and restart-storm tenants over real TCP targets, seeded
// faults mid-campaign, every invariant asserted per seed. A failure
// prints the seed and the fault trace it reproduces from.
func TestCampaignProperty(t *testing.T) {
	if testing.Short() {
		// The full mixed campaign is wall-clock heavy; -short runs a
		// trimmed aggressor fleet over fewer seeds.
		for iter := 0; iter < campaignSeeds(t); iter++ {
			seed := int64(0xca4d + iter)
			cfg := MixedConfig(seed)
			cfg.Tenants[1].Ranks = 32 // lighter sustained aggressor
			runAndCheck(t, cfg, MixedBounds())
		}
		return
	}
	for iter := 0; iter < campaignSeeds(t); iter++ {
		seed := int64(0xca4d + iter)
		runAndCheck(t, MixedConfig(seed), MixedBounds())
	}
}

func runAndCheck(t *testing.T, cfg Config, b Bounds) {
	t.Helper()
	// The victim-tail bound is a wall-clock assertion: on a loaded test
	// machine (go test runs packages in parallel) a scheduler stall can
	// inflate one seed's p99.9 past the bound with admission working
	// perfectly. Retry a seed whose ONLY violations are tail bounds —
	// a real admission regression blows the bound by multiples on every
	// attempt (the break-demo measures ~6x over), so retries cannot
	// mask it. Accounting, fairness, and telemetry violations are
	// deterministic and never retried.
	const tailRetries = 2
	for attempt := 0; ; attempt++ {
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("seed %d: campaign failed to run: %v", cfg.Seed, err)
		}
		if v := res.Check(b); len(v) > 0 {
			if attempt < tailRetries && tailBoundOnly(v) {
				t.Logf("seed %d attempt %d: tail bound exceeded under load, retrying: %s",
					cfg.Seed, attempt, v[0])
				continue
			}
			t.Fatalf("seed %d: %d invariant violations:\n%s\nfault trace:\n%s",
				cfg.Seed, len(v), joinLines(v), res.FaultTrace)
		}
		// The campaign must have actually exercised the machinery.
		agg := res.Tenant("aggressor")
		if agg != nil && agg.Rejected == 0 {
			t.Fatalf("seed %d: aggressor never rejected — admission control untested", cfg.Seed)
		}
		for _, tr := range res.Tenants {
			if tr.Completed == 0 {
				t.Fatalf("seed %d: tenant %s completed nothing", cfg.Seed, tr.Name)
			}
		}
		return
	}
}

// tailBoundOnly reports whether every violation is a victim p99.9
// bound breach (the one wall-clock-sensitive check).
func tailBoundOnly(violations []string) bool {
	for _, v := range violations {
		if !strings.Contains(v, "p99.9") || !strings.Contains(v, "exceeds bound") {
			return false
		}
	}
	return len(violations) > 0
}

// Fairness: four identical tenants split the targets near-evenly.
func TestCampaignFairness(t *testing.T) {
	seeds := 3
	if testing.Short() {
		seeds = 1
	}
	for iter := 0; iter < seeds; iter++ {
		seed := int64(0xfa17 + iter)
		cfg := EqualConfig(seed, 4)
		runAndCheck(t, cfg, Bounds{MinJain: 0.8, EqualTenants: EqualTenantNames(4)})
	}
}

// The break-demo: with admission enforcement disabled, the sustained
// aggressor's ranks stack the gate's queue and the victim's
// p99.9 blows through the bound the property campaign holds — proving
// the suite detects a broken admission path rather than vacuously
// passing.
func TestCampaignBreakDemo(t *testing.T) {
	seed := int64(0xb4ea)
	cfg := DuelConfig(seed)
	cfg.Tenants[1].Ranks = 128 // full aggressor fleet, nothing holding it back
	cfg.DisableAdmission = true
	reg := telemetry.New()
	cfg.Registry = reg
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("seed %d: break-demo campaign failed to run: %v", seed, err)
	}
	v := res.Check(MixedBounds())
	if len(v) == 0 {
		t.Fatalf("seed %d: admission disabled but no invariant violated — the campaign cannot detect a broken admission path (victim p999 %v, solo %v)",
			seed, res.Tenant("victim").P999, res.SoloVictimP999)
	}
	t.Logf("seed %d: break-demo detected %d violations as designed: %s", seed, len(v), v[0])
}

// Cluster scale: thousands of ranks across tenants, every invariant
// still holding. Heavy; full mode only.
func TestCampaignClusterScale(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster-scale campaign skipped in -short")
	}
	seed := int64(0xc105)
	cfg := Config{
		Seed:          seed,
		Targets:       4,
		TargetLatency: 500 * time.Microsecond,
		GateCapacity:  8,
	}
	shape := workload.ShapeFor(workload.ShapeVictim, 1024)
	shape.OpsPerRank = 4
	shape.ThinkOps = 0
	shape.ReadFraction = 0.5
	for i := 0; i < 4; i++ {
		cfg.Tenants = append(cfg.Tenants, TenantSpec{
			Name:   equalName(i),
			Shape:  shape,
			Ranks:  500,
			Limits: qos.TenantLimits{OpsPerSec: 2000, OpsBurst: 32},
		})
	}
	runAndCheck(t, cfg, Bounds{MinJain: 0.8, EqualTenants: EqualTenantNames(4)})
}

func joinLines(xs []string) string {
	out := ""
	for _, x := range xs {
		out += "  - " + x + "\n"
	}
	return out
}
