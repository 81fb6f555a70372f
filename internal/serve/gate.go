package serve

import (
	"container/list"
	"context"
	"sync"
)

// gate is a weighted, FIFO admission semaphore: every request acquires a
// number of units proportional to its compute cost before touching the
// model stack (an artifact costs 1, a report or sweep variant one per
// artifact, a trace job more the longer it runs), so a burst of cheap
// requests runs concurrently up to the capacity while one expensive
// request drains the gate, runs alone, and releases it — it can neither
// starve the pool nor be starved forever, because waiters are served
// strictly in arrival order.
type gate struct {
	cap int64

	mu  sync.Mutex
	cur int64 // guarded by mu
	// waiters holds *gateWaiter values, FIFO.
	waiters list.List // guarded by mu
}

type gateWaiter struct {
	n     int64
	ready chan struct{} // closed when the grant is made
}

func newGate(capacity int64) *gate {
	if capacity < 1 {
		capacity = 1
	}
	return &gate{cap: capacity}
}

// clamp bounds a request's weight to the gate capacity, so one request
// dearer than the whole gate still admits (exclusively) instead of
// deadlocking.
func (g *gate) clamp(n int64) int64 {
	if n < 1 {
		n = 1
	}
	if n > g.cap {
		n = g.cap
	}
	return n
}

// Acquire blocks until n units are granted or ctx is done. n is clamped to
// [1, capacity]. The returned release function gives the units back (call
// exactly once; it is nil when Acquire fails).
func (g *gate) Acquire(ctx context.Context, n int64) (release func(), err error) {
	n = g.clamp(n)
	release = func() { g.release(n) }
	elem := g.enqueue(n)
	if elem == nil {
		return release, nil
	}
	select {
	case <-elem.Value.(*gateWaiter).ready:
		return release, nil
	case <-ctx.Done():
		if g.abandon(elem) {
			return release, nil
		}
		return nil, ctx.Err()
	}
}

// enqueue grants n units at once (nil) when nobody waits and they fit, and
// otherwise queues a waiter for them and returns its element.
func (g *gate) enqueue(n int64) *list.Element {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.waiters.Len() == 0 && g.cur+n <= g.cap {
		g.cur += n
		return nil
	}
	return g.waiters.PushBack(&gateWaiter{n: n, ready: make(chan struct{})})
}

// abandon withdraws a canceled waiter. It reports true when the grant
// raced the cancellation and was made first: the waiter keeps it, so units
// are never leaked nor double-counted.
func (g *gate) abandon(elem *list.Element) (granted bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	select {
	case <-elem.Value.(*gateWaiter).ready:
		return true
	default:
	}
	g.waiters.Remove(elem)
	// Removing a waiter at the head may unblock those behind it.
	g.notifyLocked()
	return false
}

func (g *gate) release(n int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.cur -= n
	if g.cur < 0 {
		panic("serve: gate released more than acquired")
	}
	g.notifyLocked()
}

// notifyLocked grants queued waiters in FIFO order while capacity lasts.
// The head waiter blocks everyone behind it even if they would fit —
// that's the anti-starvation guarantee for heavy requests.
func (g *gate) notifyLocked() {
	for {
		front := g.waiters.Front()
		if front == nil {
			return
		}
		w := front.Value.(*gateWaiter)
		if g.cur+w.n > g.cap {
			return
		}
		g.cur += w.n
		g.waiters.Remove(front)
		close(w.ready)
	}
}

// InFlight returns the units currently held — exported to the metrics
// layer as a gauge.
func (g *gate) InFlight() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.cur
}

// Waiting returns the queued waiter count.
func (g *gate) Waiting() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.waiters.Len()
}
