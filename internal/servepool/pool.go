// Package servepool is the concurrent serving core: a bounded worker pool
// plus an Engine that runs the two independent halves of a recommendation
// (template classification and fragment search) in parallel, memoized
// through an inference cache, and fans batches of requests across the
// pool. Every half runs as an item of a micro-batch on one model path;
// with coalescing off (the default) each batch holds one item and runs
// under its request's own context.
//
// Model inference is read-only — the forward pass, beam search and
// classifier head only read parameters — so any number of predictions can
// run concurrently against one Recommender. The pool exists to bound that
// concurrency: without it a traffic burst would start an unbounded number
// of beam searches and thrash the CPU. Workers are fixed goroutines
// draining a task channel; tasks whose context is already cancelled are
// skipped rather than executed.
package servepool

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
)

// ErrClosed is returned by Do/Submit after Close.
var ErrClosed = errors.New("servepool: pool closed")

// Pool is a bounded worker pool. Create with NewPool; the zero value is
// not usable.
type Pool struct {
	tasks    chan task
	wg       sync.WaitGroup
	workers  int
	queueCap int
	// mu guards closed and the task channel's lifetime: submitters hold
	// the read side while sending so Close (write side) can never close
	// the channel out from under an in-flight send.
	mu       sync.RWMutex
	closed   bool
	executed atomic.Uint64
	skipped  atomic.Uint64
	// queued counts tasks submitted but not yet picked up by a worker —
	// the live queue depth admission control keys on. queueHW is its
	// high-water mark.
	queued  atomic.Int64
	queueHW atomic.Int64
}

type task struct {
	ctx  context.Context
	fn   func()
	done chan bool // receives whether fn actually ran
}

// NewPool starts a pool with the given number of worker goroutines and
// the default queue capacity (= workers). workers <= 0 defaults to
// GOMAXPROCS.
func NewPool(workers int) *Pool { return NewPoolQueue(workers, 0) }

// NewPoolQueue starts a pool with an explicit task-queue capacity.
// queue <= 0 defaults to the worker count: a small queue lets submitters
// hand off without rendezvous while staying shallow enough that
// backpressure reaches callers quickly. Larger queues absorb burstier
// arrivals at the cost of longer queueing delay — pair them with
// admission control so requests don't wait out their whole deadline in
// line.
func NewPoolQueue(workers, queue int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if queue <= 0 {
		queue = workers
	}
	p := &Pool{
		tasks:    make(chan task, queue),
		workers:  workers,
		queueCap: queue,
	}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for t := range p.tasks {
		p.queued.Add(-1)
		if t.ctx != nil && t.ctx.Err() != nil {
			// The submitter already gave up; don't burn a worker on a
			// result nobody will read.
			p.skipped.Add(1)
			t.done <- false
			continue
		}
		// Counted before fn runs: fn may itself signal completion (a
		// batch closes its items' done channels), and a caller that
		// reads Stats after that signal must see this task.
		p.executed.Add(1)
		t.fn()
		t.done <- true
	}
}

// Do submits fn and blocks until a worker has run it, the context is
// cancelled, or the pool is closed. When it returns nil, fn has completed.
func (p *Pool) Do(ctx context.Context, fn func()) error {
	t := task{ctx: ctx, fn: fn, done: make(chan bool, 1)}
	p.mu.RLock()
	if p.closed {
		p.mu.RUnlock()
		return ErrClosed
	}
	// Count the submission before the send: a task handed straight to an
	// idle worker is decremented by that worker, and the transient
	// +1/-1 keeps the gauge an upper bound rather than undercounting.
	p.bumpQueued()
	select {
	case p.tasks <- t:
		p.mu.RUnlock()
	case <-ctx.Done():
		p.queued.Add(-1)
		p.mu.RUnlock()
		return ctx.Err()
	}
	select {
	case ran := <-t.done:
		if !ran {
			return ctx.Err()
		}
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// bumpQueued increments the queue gauge and folds it into the high-water
// mark.
func (p *Pool) bumpQueued() {
	n := p.queued.Add(1)
	for {
		hw := p.queueHW.Load()
		if n <= hw || p.queueHW.CompareAndSwap(hw, n) {
			return
		}
	}
}

// Workers returns the pool size.
func (p *Pool) Workers() int { return p.workers }

// QueueDepth returns the number of submitted tasks not yet picked up by
// a worker — the signal admission control sheds on.
func (p *Pool) QueueDepth() int {
	n := p.queued.Load()
	if n < 0 {
		n = 0
	}
	return int(n)
}

// QueueCap returns the task-queue capacity.
func (p *Pool) QueueCap() int { return p.queueCap }

// PoolStats is a snapshot of pool activity counters.
type PoolStats struct {
	Workers        int    `json:"workers"`
	Executed       uint64 `json:"executed"`
	Skipped        uint64 `json:"skipped"`
	QueueCap       int    `json:"queue_cap"`
	QueueDepth     int    `json:"queue_depth"`
	QueueHighWater int64  `json:"queue_high_water"`
}

// Stats snapshots the pool counters.
func (p *Pool) Stats() PoolStats {
	return PoolStats{
		Workers:        p.workers,
		Executed:       p.executed.Load(),
		Skipped:        p.skipped.Load(),
		QueueCap:       p.queueCap,
		QueueDepth:     p.QueueDepth(),
		QueueHighWater: p.queueHW.Load(),
	}
}

// Close stops accepting work, runs everything already queued, and waits
// for the workers to exit. Close is idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.tasks)
	}
	p.mu.Unlock()
	p.wg.Wait()
}
