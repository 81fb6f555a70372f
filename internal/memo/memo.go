// Package memo is a keyed single-flight table with a bounded memory of
// successes. The first caller of a key leads: it produces the value and
// finishes the key's cell; callers that join while the cell is in flight
// wait on it, and callers after a successful finish read the kept value.
// The compute cache (internal/repro) and the daemon's body memo
// (internal/serve) are both this table.
//
// One rule holds for every cell:
//
//   - A successful cell is kept. Past the table's bound, the oldest kept
//     cell is evicted, so a scan over distinct keys cannot grow the table.
//   - A failed cell leaves the table before its waiters wake, so the next
//     caller of its key leads afresh. Do counts a panic in its fill as a
//     failure.
//   - Reset forgets every cell. A cell in flight at the reset still
//     finishes for its waiters, but it is not kept.
package memo

import (
	"fmt"
	"sync"
)

// Cell is one key's value. It is in flight until Finish publishes its
// value or error and closes Done.
type Cell[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Done is closed once the cell has finished.
func (c *Cell[V]) Done() <-chan struct{} { return c.done }

// Ready returns the value of a cell that has already finished
// successfully. A cell still in flight, or one that failed, reports false.
func (c *Cell[V]) Ready() (V, bool) {
	select {
	case <-c.done:
		return c.val, c.err == nil
	default:
		var zero V
		return zero, false
	}
}

// Result returns the cell's value and error. Call it only after Done is
// closed.
func (c *Cell[V]) Result() (V, error) { return c.val, c.err }

// Table maps keys to cells. Create with New.
type Table[V any] struct {
	bound int
	mu    sync.Mutex
	m     map[string]*Cell[V] // guarded by mu
	// kept lists the keys of the finished cells in m, oldest first.
	// guarded by mu
	kept []string
}

// New returns an empty table that keeps at most bound successful cells.
func New[V any](bound int) *Table[V] {
	return &Table[V]{bound: bound, m: make(map[string]*Cell[V])}
}

// Join returns the cell for key, creating it (leader true) when the table
// has none. A leader must Finish the cell.
func (t *Table[V]) Join(key string) (c *Cell[V], leader bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if c, ok := t.m[key]; ok {
		return c, false
	}
	c = &Cell[V]{done: make(chan struct{})}
	t.m[key] = c
	return c, true
}

// Finish publishes the outcome of c, the cell key's leader joined, keeps
// or drops c, and closes its Done channel.
func (t *Table[V]) Finish(key string, c *Cell[V], v V, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	c.val, c.err = v, err
	switch {
	case t.m[key] != c: // forgotten by a Reset while in flight
	case err != nil:
		delete(t.m, key)
	default:
		t.kept = append(t.kept, key)
		if len(t.kept) > t.bound {
			delete(t.m, t.kept[0])
			t.kept = t.kept[1:]
		}
	}
	close(c.done)
}

// Do returns key's cell once it has finished, running fill as its leader
// when the table has none; leader reports whether this call ran fill. A
// panic in fill finishes the cell with the error "panic: <value>".
func (t *Table[V]) Do(key string, fill func() (V, error)) (c *Cell[V], leader bool) {
	c, leader = t.Join(key)
	if !leader {
		<-c.done
		return c, false
	}
	var v V
	var err error
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
		t.Finish(key, c, v, err)
	}()
	v, err = fill()
	return c, true
}

// Reset forgets every cell.
func (t *Table[V]) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.m = make(map[string]*Cell[V])
	t.kept = nil
}

// Len returns the number of kept cells and of cells in flight.
func (t *Table[V]) Len() (kept, inFlight int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.kept), len(t.m) - len(t.kept)
}
