// The lockguard fixture: `// guarded by <mu>` fields must only be
// touched while the named mutex is held (or from a *Locked caller-holds
// function).
package fixture

import "sync"

type counter struct {
	mu sync.Mutex
	n  int // guarded by mu

	// hits is annotated as a doc comment instead of a line comment —
	// both spellings must bind.
	// guarded by mu
	hits int

	// guarded by missing
	orphan int // want "names no sibling sync.Mutex"
}

// Inc holds the lock across both writes: clean.
func (c *counter) Inc() {
	c.mu.Lock()
	c.n++
	c.hits++
	c.mu.Unlock()
}

// Peek reads a guarded field with no lock held: the violation class.
func (c *counter) Peek() int {
	return c.n // want "c.n is guarded by c.mu, which is not held here"
}

// drainLocked uses the caller-holds naming convention: receiver accesses
// are the caller's responsibility, not findings.
func (c *counter) drainLocked() int {
	v := c.n
	c.n = 0
	return v
}

// Drain pairs the convention's two halves: lock here, touch in *Locked.
func (c *counter) Drain() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.drainLocked()
}

// branches exercises the early-return shape: the fast path unlocks and
// returns, so its unlock must not leak into the tail where the lock is
// still held.
func (c *counter) branches(fast bool) int {
	c.mu.Lock()
	if fast {
		v := c.n
		c.mu.Unlock()
		return v
	}
	defer c.mu.Unlock()
	c.n++
	return c.n
}

// leaked shows the converse: after an unconditional Unlock the guard is
// gone, so the tail access is a finding.
func (c *counter) leaked() int {
	c.mu.Lock()
	c.n = 1
	c.mu.Unlock()
	return c.n // want "c.n is guarded by c.mu, which is not held here"
}
