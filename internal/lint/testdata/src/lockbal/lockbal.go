// Package lockbal holds golden fixtures for the lockbal analyzer:
// unbalanced lock paths, double unlocks, self-deadlocks and RLock/Unlock
// pairing mistakes.
package lockbal

import (
	"errors"
	"sync"
)

var errFail = errors.New("fail")

type counter struct {
	mu sync.Mutex
	n  int
}

// leakOnErrorPath returns holding the lock on the error branch — the
// classic unbalanced early return that serializes every later caller
// forever.
func (c *counter) leakOnErrorPath(fail bool) error {
	c.mu.Lock()
	if fail {
		return errFail // want `lock c.mu may still be held on this return path`
	}
	c.n++
	c.mu.Unlock()
	return nil
}

// doubleUnlock releases twice in sequence: the second Unlock panics at
// runtime.
func (c *counter) doubleUnlock() {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
	c.mu.Unlock() // want `lock c.mu is not held on some path reaching this unlock`
}

// lockTwice re-locks a non-reentrant mutex it already holds: the
// goroutine deadlocks against itself.
func (c *counter) lockTwice() {
	c.mu.Lock()
	c.mu.Lock() // want `lock c.mu may already be held here: locking again deadlocks this goroutine`
	c.n += 2
	c.mu.Unlock()
}

type gauge struct {
	mu sync.RWMutex
	v  float64
}

// mixedPairing acquires the read lock but releases the write side:
// Unlock of an RWMutex not write-locked panics.
func (g *gauge) mixedPairing() float64 {
	g.mu.RLock()
	v := g.v
	g.mu.Unlock() // want `lock g.mu released with Unlock but acquired with RLock: use RUnlock`
	return v
}

// deferOK is the canonical clean shape: the deferred unlock covers
// every return path, including panics.
func (c *counter) deferOK() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.n > 0 {
		return c.n
	}
	return 0
}

// branchesOK unlocks explicitly on both arms: balanced without defer.
func (c *counter) branchesOK(fast bool) {
	c.mu.Lock()
	if fast {
		c.n++
		c.mu.Unlock()
		return
	}
	c.n += 2
	c.mu.Unlock()
}

// readOK pairs RLock with a deferred RUnlock.
func (g *gauge) readOK() float64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.v
}

// lockHandoff intentionally returns holding the lock: ownership
// transfers to the caller, which must call releaseHandoff. The
// directive documents the contract and suppresses the finding.
func (c *counter) lockHandoff() {
	c.mu.Lock()
	c.n++
	//lint:ignore lockbal ownership transfers to the caller, which must call releaseHandoff
}

func (c *counter) releaseHandoff() {
	c.mu.Unlock()
}
