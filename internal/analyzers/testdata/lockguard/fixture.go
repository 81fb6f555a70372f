// The lockguard fixture: `// guarded by <mu>` fields must only be
// touched while the named mutex is held (or from a *Locked caller-holds
// function), and only `mu.Lock()` then at once `defer mu.Unlock()`, at the
// top level of a function body, holds a lock.
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
	defer c.mu.Unlock()
	c.n++
	c.hits++
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

// branches takes the lock once, at the top: both paths run under it.
func (c *counter) branches(fast bool) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if fast {
		return c.n
	}
	c.n++
	return c.n
}

// lockLate reads before its pair: a lock is held from where its pair
// stands, not from the top of the function.
func (c *counter) lockLate() int {
	v := c.n // want "c.n is guarded by c.mu, which is not held here"
	c.mu.Lock()
	defer c.mu.Unlock()
	return v + c.hits
}

// leaked releases its lock by hand: only the deferred pair holds a lock,
// so both calls are findings, and so are the access they bracket and the
// tail access after the release.
func (c *counter) leaked() int {
	c.mu.Lock()   // want "c.mu.Lock\(\) is outside the lock shape"
	c.n = 1       // want "c.n is guarded by c.mu, which is not held here"
	c.mu.Unlock() // want "c.mu.Unlock\(\) is outside the lock shape"
	return c.n    // want "c.n is guarded by c.mu, which is not held here"
}

// pairInBranch has the shape inside a branch: a pair holds only at the top
// level of a function body.
func (c *counter) pairInBranch(ok bool) {
	if ok {
		c.mu.Lock()         // want "c.mu.Lock\(\) is outside the lock shape"
		defer c.mu.Unlock() // want "c.mu.Unlock\(\) is outside the lock shape"
		c.n++               // want "c.n is guarded by c.mu, which is not held here"
	}
}

// unlockHeld releases a lock its deferred Unlock already releases.
func (c *counter) unlockHeld() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	v := c.n
	c.mu.Unlock() // want "c.mu.Unlock\(\) is outside the lock shape"
	return v
}

// spawn holds the lock: a plain literal inherits it, a `go` literal runs
// concurrently and holds nothing of its caller's.
func (c *counter) spawn() {
	c.mu.Lock()
	defer c.mu.Unlock()
	inc := func() { c.n++ }
	inc()
	go func() {
		c.hits++ // want "c.hits is guarded by c.mu, which is not held here"
	}()
}

type table struct {
	mu sync.RWMutex
	m  map[string]int // guarded by mu
}

// get pairs RLock with RUnlock: clean.
func (t *table) get(k string) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.m[k]
}

// mixed pairs RLock with Unlock, which is not the shape.
func (t *table) mixed(k string) int {
	t.mu.RLock()        // want "t.mu.RLock\(\) is outside the lock shape"
	defer t.mu.Unlock() // want "t.mu.Unlock\(\) is outside the lock shape"
	return t.m[k]       // want "t.m is guarded by t.mu, which is not held here"
}

// memo is generic: its own methods and code naming an instance reach its
// fields through instantiated types. get is clean, peek and peekInts not.
type memo[V any] struct {
	mu sync.Mutex
	m  map[string]V // guarded by mu
}

func (t *memo[V]) get(k string) V {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.m[k]
}

func (t *memo[V]) peek(k string) V { return t.m[k] } // want "t.m is guarded by t.mu, which is not held here"

func peekInts(t *memo[int]) int { return t.m["k"] } // want "t.m is guarded by t.mu, which is not held here"
