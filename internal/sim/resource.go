package sim

// Resource models a capacity-limited facility (a hardware queue, a
// metadata server thread pool, a RAID controller) with strict FIFO
// admission. Processes Acquire a slot, hold it while being serviced
// (usually via Sleep), and Release it.
type Resource struct {
	env   *Env
	cap   int
	inUse int
	q     []chan struct{}

	// Stats.
	acquires  int64
	maxQueue  int
	waitTotal int64 // summed virtual ns spent waiting
}

// NewResource returns a Resource with the given capacity (minimum 1).
func (e *Env) NewResource(capacity int) *Resource {
	if capacity < 1 {
		capacity = 1
	}
	return &Resource{env: e, cap: capacity}
}

// Acquire blocks the process until a slot is free. Admission is FIFO.
func (r *Resource) Acquire(p *Proc) {
	e := r.env
	e.mu.Lock()
	r.acquires++
	if r.inUse < r.cap {
		r.inUse++
		e.mu.Unlock()
		return
	}
	ch := make(chan struct{})
	r.q = append(r.q, ch)
	if len(r.q) > r.maxQueue {
		r.maxQueue = len(r.q)
	}
	start := e.now
	e.waiting++
	e.blockLocked()
	e.mu.Unlock()
	<-ch
	e.mu.Lock()
	r.waitTotal += int64(e.now - start)
	e.mu.Unlock()
}

// TryAcquire acquires a slot only if one is immediately free, reporting
// whether it did.
func (r *Resource) TryAcquire() bool {
	r.env.mu.Lock()
	defer r.env.mu.Unlock()
	if r.inUse < r.cap {
		r.inUse++
		r.acquires++
		return true
	}
	return false
}

// Release frees a slot, handing it directly to the longest-waiting
// process if any.
func (r *Resource) Release() {
	e := r.env
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(r.q) > 0 {
		ch := r.q[0]
		r.q = r.q[1:]
		e.waiting--
		// The slot transfers to the waiter; inUse is unchanged.
		e.pushLocked(e.now, func() { e.runnable++; close(ch) })
		return
	}
	if r.inUse > 0 {
		r.inUse--
	}
}

// Stats reports total acquisitions, the high-water queue length, and the
// total virtual time processes spent waiting.
func (r *Resource) Stats() (acquires int64, maxQueue int, waitTotalNS int64) {
	r.env.mu.Lock()
	defer r.env.mu.Unlock()
	return r.acquires, r.maxQueue, r.waitTotal
}
