package sim

// WaitGroup is the virtual-time analogue of sync.WaitGroup: processes
// Wait until the counter returns to zero. It is used to join fan-out
// work such as "all ranks finished this checkpoint".
type WaitGroup struct {
	env     *Env
	n       int
	waiters []chan struct{}
}

// NewWaitGroup returns an empty WaitGroup bound to the environment.
func (e *Env) NewWaitGroup() *WaitGroup {
	return &WaitGroup{env: e}
}

// Add adds delta (which may be negative) to the counter. If the counter
// reaches zero all waiters are released. Add panics if the counter goes
// negative.
func (wg *WaitGroup) Add(delta int) {
	e := wg.env
	e.mu.Lock()
	defer e.mu.Unlock()
	wg.n += delta
	if wg.n < 0 {
		panic("sim: negative WaitGroup counter")
	}
	if wg.n == 0 {
		wg.releaseLocked()
	}
}

// Done decrements the counter by one.
func (wg *WaitGroup) Done() { wg.Add(-1) }

// Count returns the current counter value.
func (wg *WaitGroup) Count() int {
	wg.env.mu.Lock()
	defer wg.env.mu.Unlock()
	return wg.n
}

// Wait blocks the process until the counter is zero.
func (wg *WaitGroup) Wait(p *Proc) {
	e := wg.env
	e.mu.Lock()
	if wg.n == 0 {
		e.mu.Unlock()
		return
	}
	ch := make(chan struct{})
	wg.waiters = append(wg.waiters, ch)
	e.waiting++
	e.blockLocked()
	e.mu.Unlock()
	<-ch
}

func (wg *WaitGroup) releaseLocked() {
	e := wg.env
	for _, ch := range wg.waiters {
		ch := ch
		e.waiting--
		e.pushLocked(e.now, func() { e.runnable++; close(ch) })
	}
	wg.waiters = nil
}

// Signal is a broadcast condition in virtual time: processes Wait until
// another process Fires it. Each Fire releases every currently waiting
// process exactly once.
type Signal struct {
	env     *Env
	waiters []chan struct{}
}

// NewSignal returns a Signal bound to the environment.
func (e *Env) NewSignal() *Signal { return &Signal{env: e} }

// Wait blocks the process until the next Fire.
func (s *Signal) Wait(p *Proc) {
	e := s.env
	e.mu.Lock()
	ch := make(chan struct{})
	s.waiters = append(s.waiters, ch)
	e.waiting++
	e.blockLocked()
	e.mu.Unlock()
	<-ch
}

// Fire releases all processes currently blocked in Wait.
func (s *Signal) Fire() {
	e := s.env
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, ch := range s.waiters {
		ch := ch
		e.waiting--
		e.pushLocked(e.now, func() { e.runnable++; close(ch) })
	}
	s.waiters = nil
}
