package campaign

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// The gate's typed refusals. Neither operation reached the wire.
var (
	// errShed: the backlog, or the tenant's share of it, was full, so
	// the load is shed at once instead of inflating every other
	// tenant's latency.
	errShed = errors.New("campaign: backpressure: gate queue full")
	// errLate: the deadline passed while the operation was queued.
	errLate = errors.New("campaign: deadline expired while queued")
)

// gate is the campaign's stand-in for one shared device: at most
// capacity operations are inside at once, across every tenant and
// target. MemNamespace's latency model does not serialize across queue
// pairs, so without it the tenants would never contend. Waiters are
// granted in arrival order. Every deadline is the acquire time plus the
// same commandTimeout, so earliest-deadline-first would pick the same
// order. The backlog is bounded globally and per tenant.
type gate struct {
	capacity, maxWaiters, tenantWaiters int

	mu        sync.Mutex
	inflight  int
	waiters   []*gateWaiter // oldest first
	perTenant map[string]int
}

// gateWaiter is one queued acquire.
type gateWaiter struct {
	tenant  string
	grant   chan struct{}
	granted bool // set under the gate's mutex before grant closes
}

func newGate(capacity, maxWaiters, tenantWaiters int) *gate {
	return &gate{capacity: capacity, maxWaiters: maxWaiters, tenantWaiters: tenantWaiters, perTenant: map[string]int{}}
}

// acquire enters the gate on behalf of tenant, waiting in arrival order
// while it is full. It returns errShed at once when the backlog or the
// tenant's share is full, and errLate when deadline passes while
// queued. A nil error must be paired with one release.
func (g *gate) acquire(tenant string, deadline time.Time) error {
	g.mu.Lock()
	// release hands a freed slot straight to the oldest waiter, so a
	// free slot means nobody is queued ahead of this caller.
	if g.inflight < g.capacity {
		g.inflight++
		g.mu.Unlock()
		return nil
	}
	if len(g.waiters) >= g.maxWaiters || g.perTenant[tenant] >= g.tenantWaiters {
		g.mu.Unlock()
		return fmt.Errorf("tenant %q: %w", tenant, errShed)
	}
	w := &gateWaiter{tenant: tenant, grant: make(chan struct{})}
	g.waiters = append(g.waiters, w)
	g.perTenant[tenant]++
	g.mu.Unlock()

	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	select {
	case <-w.grant:
		return nil
	case <-timer.C:
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if w.granted {
		// The grant raced the timer: the slot is ours, so use it.
		return nil
	}
	for i, x := range g.waiters {
		if x == w {
			g.waiters = append(g.waiters[:i], g.waiters[i+1:]...)
			break
		}
	}
	g.perTenant[tenant]--
	return fmt.Errorf("tenant %q: %w", tenant, errLate)
}

// release frees the caller's slot: the oldest waiter inherits it, or
// the gate's occupancy drops.
func (g *gate) release() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.waiters) == 0 {
		g.inflight--
		return
	}
	g.grantOldest()
}

// grantOldest hands a slot to the oldest waiter. g.mu must be held.
func (g *gate) grantOldest() {
	w := g.waiters[0]
	g.waiters[0] = nil
	g.waiters = g.waiters[1:]
	g.perTenant[w.tenant]--
	w.granted = true
	close(w.grant)
}
