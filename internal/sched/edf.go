// Package sched is the EDF deadline gate: a bounded, earliest-deadline-
// first admission queue in front of a shared resource (a target's queue
// pairs), which sheds instead of queueing without bound.
package sched

import (
	"container/heap"
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrShed reports that an acquire was refused immediately because the
// gate's bounded wait queue (or the tenant's share of it) is full —
// backpressure sheds the load instead of letting a backlog inflate
// every other tenant's latency. Callers see it synchronously; nothing
// queues, nothing hangs.
var ErrShed = errors.New("sched: backpressure: wait queue full")

// ErrLate reports that a queued acquire's deadline expired before a
// slot was granted: the command would have missed its deadline anyway,
// so the gate returns instead of wasting a slot on it.
var ErrLate = errors.New("sched: deadline expired while queued")

// EDFConfig tunes an EDF gate. The zero value gets defaults.
type EDFConfig struct {
	// Capacity is how many holders may be inside the gate at once —
	// the shared resource's concurrency budget (default 8).
	Capacity int
	// MaxWaiters bounds the total wait queue; an acquire that would
	// exceed it is shed with ErrShed (default 1024).
	MaxWaiters int
	// TenantWaiters bounds one tenant's share of the wait queue, so a
	// single aggressor cannot occupy the whole backlog (default
	// MaxWaiters).
	TenantWaiters int
}

func (c EDFConfig) withDefaults() EDFConfig {
	if c.Capacity <= 0 {
		c.Capacity = 8
	}
	if c.MaxWaiters <= 0 {
		c.MaxWaiters = 1024
	}
	if c.TenantWaiters <= 0 || c.TenantWaiters > c.MaxWaiters {
		c.TenantWaiters = c.MaxWaiters
	}
	return c
}

// edfWaiter is one queued acquire.
type edfWaiter struct {
	deadline time.Time
	seq      uint64 // FIFO tiebreak for equal deadlines
	tenant   string
	grant    chan struct{}
	index    int  // heap position
	granted  bool // set under the gate's mutex before grant closes
}

// edfHeap is a min-heap of waiters by (deadline, seq). A zero deadline
// means "no deadline" and sorts after every real deadline — an
// unhurried waiter never jumps ahead of one with a clock running.
type edfHeap []*edfWaiter

func (h edfHeap) Len() int { return len(h) }
func (h edfHeap) Less(i, j int) bool {
	di, dj := h[i].deadline, h[j].deadline
	if di.IsZero() != dj.IsZero() {
		return dj.IsZero()
	}
	if !di.Equal(dj) {
		return di.Before(dj)
	}
	return h[i].seq < h[j].seq
}
func (h edfHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *edfHeap) Push(x any) {
	w := x.(*edfWaiter)
	w.index = len(*h)
	*h = append(*h, w)
}
func (h *edfHeap) Pop() any {
	old := *h
	n := len(old)
	w := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return w
}

// EDFStats is a point-in-time summary of gate activity.
type EDFStats struct {
	Granted  uint64 // acquires that entered the gate
	Shed     uint64 // acquires refused by the bounded queue
	Late     uint64 // queued acquires whose deadline expired
	InFlight int    // current holders
	Waiting  int    // current queue depth
}

// EDF is a deadline-ordered admission gate for a shared resource: at
// most Capacity holders are inside at once, and when the gate is full,
// waiters queue and are granted in earliest-deadline-first order (FIFO
// among equal deadlines). The queue is bounded globally and per tenant;
// an acquire that cannot queue is shed immediately with ErrShed, and a
// queued acquire whose deadline passes returns ErrLate — the gate never
// hangs a caller past its own deadline.
//
// A zero deadline means "no deadline": the waiter sorts after every
// deadlined waiter and waits indefinitely. A nil *EDF is a no-op gate
// that admits everything, so callers hold a plain field and call
// Acquire unconditionally.
type EDF struct {
	cfg EDFConfig

	mu        sync.Mutex
	inflight  int
	waiters   edfHeap
	perTenant map[string]int
	seq       uint64
	granted   uint64
	shed      uint64
	late      uint64
}

// NewEDF builds a gate from cfg.
func NewEDF(cfg EDFConfig) *EDF {
	return &EDF{cfg: cfg.withDefaults(), perTenant: map[string]int{}}
}

// Acquire enters the gate on behalf of tenant, blocking in EDF order
// while the gate is at capacity. It returns a release function that
// must be called exactly once when the protected work is done, or a
// typed error: ErrShed when the queue (or the tenant's share) is full,
// ErrLate when deadline expires while queued. A zero deadline waits
// indefinitely at the lowest priority.
func (e *EDF) Acquire(tenant string, deadline time.Time) (func(), error) {
	if e == nil {
		return func() {}, nil
	}
	e.mu.Lock()
	// A free slot with a non-empty queue cannot persist: release hands
	// its slot straight to the earliest waiter under the same lock. So
	// inflight < Capacity here means nobody is queued ahead of us.
	if e.inflight < e.cfg.Capacity {
		e.inflight++
		e.granted++
		e.mu.Unlock()
		return e.releaseOnce(), nil
	}
	if len(e.waiters) >= e.cfg.MaxWaiters || e.perTenant[tenant] >= e.cfg.TenantWaiters {
		e.shed++
		e.mu.Unlock()
		return nil, fmt.Errorf("sched: tenant %q: %w", tenant, ErrShed)
	}
	w := &edfWaiter{deadline: deadline, seq: e.seq, tenant: tenant, grant: make(chan struct{})}
	e.seq++
	heap.Push(&e.waiters, w)
	e.perTenant[tenant]++
	e.mu.Unlock()

	if deadline.IsZero() {
		<-w.grant
		return e.releaseOnce(), nil
	}
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	select {
	case <-w.grant:
		return e.releaseOnce(), nil
	case <-timer.C:
		e.mu.Lock()
		if w.granted {
			// The grant raced the timer: we own a slot, use it — the
			// caller's own command deadline still bounds the work.
			e.mu.Unlock()
			return e.releaseOnce(), nil
		}
		heap.Remove(&e.waiters, w.index)
		e.dropTenant(tenant)
		e.late++
		e.mu.Unlock()
		return nil, fmt.Errorf("sched: tenant %q: %w", tenant, ErrLate)
	}
}

// dropTenant decrements a tenant's waiter count, deleting the map entry
// at zero so the map does not grow with tenant churn.
func (e *EDF) dropTenant(tenant string) {
	if n := e.perTenant[tenant] - 1; n > 0 {
		e.perTenant[tenant] = n
	} else {
		delete(e.perTenant, tenant)
	}
}

// releaseOnce returns the release function for one granted slot,
// idempotent so a confused caller cannot double-free capacity.
func (e *EDF) releaseOnce() func() {
	var once sync.Once
	return func() { once.Do(e.release) }
}

// release frees one slot: the earliest-deadline waiter inherits it
// directly (EDF order is decided here, under the lock), otherwise the
// gate's occupancy drops.
func (e *EDF) release() {
	e.mu.Lock()
	if len(e.waiters) > 0 {
		w := heap.Pop(&e.waiters).(*edfWaiter)
		e.dropTenant(w.tenant)
		w.granted = true
		e.granted++
		close(w.grant)
		e.mu.Unlock()
		return
	}
	e.inflight--
	e.mu.Unlock()
}

// Waiting returns the current wait-queue depth.
func (e *EDF) Waiting() int {
	if e == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.waiters)
}

// Stats returns the gate's counters.
func (e *EDF) Stats() EDFStats {
	if e == nil {
		return EDFStats{}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return EDFStats{
		Granted:  e.granted,
		Shed:     e.shed,
		Late:     e.late,
		InFlight: e.inflight,
		Waiting:  len(e.waiters),
	}
}
