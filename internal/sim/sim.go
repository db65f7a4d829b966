// Package sim implements a deterministic, process-oriented discrete-event
// simulation engine.
//
// The engine drives "processes" (ordinary goroutines wrapped in a Proc)
// against a virtual clock. Determinism is guaranteed by construction:
// exactly one process executes at any instant. Whenever the running
// process blocks (Sleep, Resource.Acquire, WaitGroup.Wait, ...) the
// scheduler fires the next event from a heap ordered by (time, sequence).
// Two runs of the same program therefore produce identical event orders
// and identical virtual timestamps, regardless of OS scheduling.
//
// The engine is the substrate for all performance modeling in this
// repository: NVMe device service times, fabric transfers, kernel
// software-path costs, and metadata-server queueing are all expressed as
// virtual-time waits on top of this package.
package sim

import (
	"container/heap"
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrDeadlock is returned by Run when no events remain but one or more
// processes are still blocked on a Resource or WaitGroup.
var ErrDeadlock = errors.New("sim: deadlock: blocked processes remain with an empty event queue")

// Env is a simulation environment: a virtual clock plus an event queue.
// Create one with NewEnv, add processes with Go, and drive it with Run.
// An Env must not be reused after Run returns.
type Env struct {
	mu   sync.Mutex
	cond *sync.Cond

	now      time.Duration // virtual time since simulation start
	events   eventHeap
	seq      uint64
	runnable int // processes currently executing (0 or 1 in steady state)
	waiting  int // processes blocked on a Resource/WaitGroup (not timers)
	procs    int // live processes
	started  bool
	panicked any // first panic captured from a process
}

type event struct {
	at   time.Duration
	seq  uint64
	fire func() // invoked with env.mu held
}

// NewEnv returns an empty environment with the clock at zero.
func NewEnv() *Env {
	e := &Env{}
	e.cond = sync.NewCond(&e.mu)
	return e
}

// Now returns the current virtual time. It is safe to call from any
// process; outside of Run it reports the time at which Run stopped.
func (e *Env) Now() time.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.now
}

// Proc is the handle a process uses to interact with virtual time.
// A Proc is valid only inside the function passed to Go.
type Proc struct {
	env  *Env
	name string
}

// Env returns the environment this process belongs to.
func (p *Proc) Env() *Env { return p.env }

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.env.Now() }

// Go registers a new process. The process body starts at the current
// virtual time (time zero if Run has not started yet). fn runs on its own
// goroutine but the engine guarantees it never executes concurrently with
// another process.
func (e *Env) Go(name string, fn func(p *Proc)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.procs++
	p := &Proc{env: e, name: name}
	e.pushLocked(e.now, func() {
		e.runnable++
		go e.runProc(p, fn)
	})
}

func (e *Env) runProc(p *Proc, fn func(p *Proc)) {
	defer func() {
		r := recover()
		e.mu.Lock()
		if r != nil && e.panicked == nil {
			e.panicked = fmt.Sprintf("sim: process %q panicked: %v", p.name, r)
		}
		e.procs--
		e.runnable--
		e.cond.Broadcast()
		e.mu.Unlock()
	}()
	fn(p)
}

// Sleep advances the process by d in virtual time. Negative or zero
// durations yield the processor for one scheduling round without
// advancing the clock.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	e := p.env
	ch := make(chan struct{})
	e.mu.Lock()
	e.pushLocked(e.now+d, func() { e.runnable++; close(ch) })
	e.blockLocked()
	e.mu.Unlock()
	<-ch
}

// SleepUntil blocks the process until virtual time t. If t is in the
// past it yields for one scheduling round.
func (p *Proc) SleepUntil(t time.Duration) {
	e := p.env
	e.mu.Lock()
	at := t
	if at < e.now {
		at = e.now
	}
	ch := make(chan struct{})
	e.pushLocked(at, func() { e.runnable++; close(ch) })
	e.blockLocked()
	e.mu.Unlock()
	<-ch
}

// blockLocked marks the calling process as no longer runnable and wakes
// the scheduler. Callers must hold e.mu and must subsequently block on a
// channel that a scheduled event will close.
func (e *Env) blockLocked() {
	e.runnable--
	e.cond.Broadcast()
}

// pushLocked schedules fn at time at. Callers must hold e.mu.
func (e *Env) pushLocked(at time.Duration, fn func()) {
	e.seq++
	heap.Push(&e.events, &event{at: at, seq: e.seq, fire: fn})
}

// Run drives the simulation until no events remain and all processes
// have finished, then returns the final virtual time. It returns
// ErrDeadlock if processes remain blocked with an empty queue, and
// propagates (as an error) the first panic raised inside a process.
func (e *Env) Run() (time.Duration, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.started {
		return e.now, errors.New("sim: Run called twice")
	}
	e.started = true
	for {
		for e.runnable > 0 {
			e.cond.Wait()
		}
		if e.panicked != nil {
			return e.now, fmt.Errorf("%v", e.panicked)
		}
		if e.events.Len() == 0 {
			if e.waiting > 0 || e.procs > 0 {
				return e.now, ErrDeadlock
			}
			return e.now, nil
		}
		ev := heap.Pop(&e.events).(*event)
		if ev.at > e.now {
			e.now = ev.at
		}
		ev.fire() // typically sets runnable++ and unblocks one process
	}
}

// RunFor drives the simulation like Run but stops once virtual time
// reaches limit, returning the time at which it stopped. Processes still
// blocked at that point are abandoned (their goroutines leak for the
// lifetime of the program), so RunFor is intended for open-ended
// workloads in tests and benchmarks.
func (e *Env) RunFor(limit time.Duration) (time.Duration, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.started {
		return e.now, errors.New("sim: Run called twice")
	}
	e.started = true
	for {
		for e.runnable > 0 {
			e.cond.Wait()
		}
		if e.panicked != nil {
			return e.now, fmt.Errorf("%v", e.panicked)
		}
		if e.events.Len() == 0 {
			if e.waiting > 0 || e.procs > 0 {
				return e.now, ErrDeadlock
			}
			return e.now, nil
		}
		if e.events[0].at > limit {
			return e.now, nil
		}
		ev := heap.Pop(&e.events).(*event)
		if ev.at > e.now {
			e.now = ev.at
		}
		ev.fire()
	}
}

// eventHeap is a min-heap ordered by (at, seq).
type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}
