package serve

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestGateWeightsAndFIFO: grants respect capacity and strict arrival order
// — a heavy waiter at the head blocks lighter requests behind it (the
// anti-starvation property), and is admitted as soon as capacity frees.
func TestGateWeightsAndFIFO(t *testing.T) {
	g := newGate(4)
	rel3, err := g.Acquire(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.InFlight(); got != 3 {
		t.Fatalf("in-flight = %d, want 3", got)
	}

	order := make(chan int, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		rel, err := g.Acquire(context.Background(), 2)
		if err != nil {
			t.Error(err)
			return
		}
		order <- 2
		rel()
	}()
	// Let the weight-2 waiter enqueue first, then a weight-1 behind it.
	waitFor(t, func() bool { return g.Waiting() == 1 })
	go func() {
		defer wg.Done()
		rel, err := g.Acquire(context.Background(), 1)
		if err != nil {
			t.Error(err)
			return
		}
		order <- 1
		rel()
	}()
	waitFor(t, func() bool { return g.Waiting() == 2 })
	// Capacity 4 with 3 held: the weight-1 request would fit, but FIFO
	// keeps it behind the weight-2 head.
	select {
	case got := <-order:
		t.Fatalf("waiter %d admitted while the head should block", got)
	case <-time.After(20 * time.Millisecond):
	}
	rel3()
	wg.Wait()
	close(order)
	n := 0
	for range order {
		n++
	}
	if n != 2 {
		t.Fatalf("%d waiters admitted after release, want 2", n)
	}
}

// TestGateGrantOrder: when released capacity only covers the head, the
// head alone is admitted, and the tail follows the head's release —
// strict FIFO.
func TestGateGrantOrder(t *testing.T) {
	g := newGate(4)
	rel4, err := g.Acquire(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}
	headAdmitted := make(chan func(), 1)
	go func() {
		rel, err := g.Acquire(context.Background(), 3)
		if err != nil {
			t.Error(err)
			return
		}
		headAdmitted <- rel
	}()
	waitFor(t, func() bool { return g.Waiting() == 1 })
	tailAdmitted := make(chan struct{})
	go func() {
		rel, err := g.Acquire(context.Background(), 2)
		if err != nil {
			t.Error(err)
			return
		}
		close(tailAdmitted)
		rel()
	}()
	waitFor(t, func() bool { return g.Waiting() == 2 })
	rel4()
	// Head (3) fits; tail (2) would exceed 4 and must keep waiting.
	relHead := <-headAdmitted
	select {
	case <-tailAdmitted:
		t.Fatal("tail admitted alongside the head, exceeding capacity")
	case <-time.After(20 * time.Millisecond):
	}
	relHead()
	select {
	case <-tailAdmitted:
	case <-time.After(2 * time.Second):
		t.Fatal("tail never admitted after head release")
	}
}

// TestGateClampsOversizedWeight: a request dearer than the whole gate is
// clamped to capacity — it runs exclusively instead of deadlocking.
func TestGateClampsOversizedWeight(t *testing.T) {
	g := newGate(4)
	rel, err := g.Acquire(context.Background(), 1000)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.InFlight(); got != 4 {
		t.Fatalf("in-flight = %d, want clamped 4", got)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := g.Acquire(ctx, 1); err == nil {
		t.Fatal("second acquire should block until the exclusive holder releases")
	}
	rel()
	rel2, err := g.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	rel2()
}

// TestGateCancelUnblocksQueue: a canceled waiter at the head must not wedge
// the waiters behind it.
func TestGateCancelUnblocksQueue(t *testing.T) {
	g := newGate(2)
	relAll, err := g.Acquire(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	headDone := make(chan error, 1)
	go func() {
		_, err := g.Acquire(ctx, 2)
		headDone <- err
	}()
	waitFor(t, func() bool { return g.Waiting() == 1 })
	tailDone := make(chan error, 1)
	go func() {
		rel, err := g.Acquire(context.Background(), 1)
		if err == nil {
			rel()
		}
		tailDone <- err
	}()
	waitFor(t, func() bool { return g.Waiting() == 2 })
	cancel()
	if err := <-headDone; err == nil {
		t.Fatal("canceled waiter should fail")
	}
	// With the head gone the tail still waits for units, then admits once
	// the holder releases.
	relAll()
	if err := <-tailDone; err != nil {
		t.Fatalf("tail waiter: %v", err)
	}
}

// TestGateNeverExceedsCapacity hammers the gate from many goroutines with
// mixed weights under -race and asserts held units never exceed capacity.
func TestGateNeverExceedsCapacity(t *testing.T) {
	const capacity = 5
	g := newGate(capacity)
	var held, peak atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 40; i++ {
		wt := int64(1 + i%3)
		wg.Add(1)
		go func(wt int64) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				rel, err := g.Acquire(context.Background(), wt)
				if err != nil {
					t.Error(err)
					return
				}
				h := held.Add(wt)
				for {
					p := peak.Load()
					if h <= p || peak.CompareAndSwap(p, h) {
						break
					}
				}
				held.Add(-wt)
				rel()
			}
		}(wt)
	}
	wg.Wait()
	if p := peak.Load(); p > capacity {
		t.Fatalf("held units peaked at %d, capacity %d", p, capacity)
	}
	if g.InFlight() != 0 || g.Waiting() != 0 {
		t.Fatalf("gate not drained: in-flight=%d waiting=%d", g.InFlight(), g.Waiting())
	}
}

// TestGateCancelRacesGrants cancels queued waiters while a release grants
// them, under -race. A canceled Acquire either keeps a grant made before it
// withdrew (and gives it back) or leaves the queue, so held units never
// exceed the capacity and the gate drains to zero after every round.
func TestGateCancelRacesGrants(t *testing.T) {
	const capacity, waiters = 4, 8
	g := newGate(capacity)
	var held, peak atomic.Int64
	for round := 0; round < 100; round++ {
		hold, err := g.Acquire(context.Background(), capacity)
		if err != nil {
			t.Fatal(err)
		}
		cancels := make([]context.CancelFunc, waiters)
		var wg sync.WaitGroup
		for i := range cancels {
			ctx, cancel := context.WithCancel(context.Background())
			cancels[i] = cancel
			wt := int64(1 + i%3)
			wg.Add(1)
			go func() {
				defer wg.Done()
				rel, err := g.Acquire(ctx, wt)
				if err != nil {
					return
				}
				h := held.Add(wt)
				for {
					p := peak.Load()
					if h <= p || peak.CompareAndSwap(p, h) {
						break
					}
				}
				runtime.Gosched()
				held.Add(-wt)
				rel()
			}()
		}
		waitFor(t, func() bool { return g.Waiting() == waiters })
		for i := 1; i < waiters; i += 2 {
			go cancels[i]()
		}
		hold()
		wg.Wait()
		for _, cancel := range cancels {
			cancel()
		}
		if g.InFlight() != 0 || g.Waiting() != 0 {
			t.Fatalf("round %d: gate not drained: in-flight=%d waiting=%d", round, g.InFlight(), g.Waiting())
		}
	}
	if p := peak.Load(); p > capacity {
		t.Fatalf("held units peaked at %d, capacity %d", p, capacity)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDefaultGateUnits pins the capacity a zero Config.GateUnits selects,
// max(8, 4·GOMAXPROCS), and that GateUnits reports the value /metrics
// exports.
func TestDefaultGateUnits(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range []struct {
		procs      int
		cfg, units int64
	}{
		{procs: 1, units: 8},
		{procs: 2, units: 8},
		{procs: 4, units: 16},
		{procs: 4, cfg: 3, units: 3},
	} {
		runtime.GOMAXPROCS(tc.procs)
		s := New(Config{GateUnits: tc.cfg})
		if got := s.GateUnits(); got != tc.units {
			t.Errorf("GOMAXPROCS %d, GateUnits %d: capacity %d, want %d", tc.procs, tc.cfg, got, tc.units)
		}
		body := get(t, s.Handler(), "/metrics", nil).Body.String()
		if want := fmt.Sprintf("\nnanoreprod_gate_capacity_units %d\n", tc.units); !strings.Contains(body, want) {
			t.Errorf("GOMAXPROCS %d, GateUnits %d: /metrics lacks %q", tc.procs, tc.cfg, strings.TrimSpace(want))
		}
		s.Close()
	}
}
