package memo

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// TestTableFlushRule: a cell in flight when the table is reset still finishes
// for its waiters but is not kept, and the next join leads afresh. A failed
// cell is not kept either.
func TestTableFlushRule(t *testing.T) {
	tb := New[string](4)
	c, leader := tb.Join("k")
	if !leader {
		t.Fatal("first join did not lead")
	}
	if _, leader := tb.Join("k"); leader {
		t.Fatal("a second join led while the first cell was in flight")
	}
	tb.Reset()
	tb.Finish("k", c, "body", nil)
	if v, ok := c.Ready(); !ok || v != "body" {
		t.Fatalf("waiters of a cell finished after a reset got %q, %v", v, ok)
	}
	if kept, inFlight := tb.Len(); kept != 0 || inFlight != 0 {
		t.Fatalf("Len() = %d kept, %d in flight after a reset, want 0, 0", kept, inFlight)
	}
	c, leader = tb.Join("k")
	if !leader {
		t.Fatal("join after the reset did not lead afresh")
	}
	if _, inFlight := tb.Len(); inFlight != 1 {
		t.Fatalf("%d cells in flight, want 1", inFlight)
	}
	tb.Finish("k", c, "", errors.New("boom"))
	if kept, inFlight := tb.Len(); kept != 0 || inFlight != 0 {
		t.Fatalf("a failed cell stayed (%d kept, %d in flight)", kept, inFlight)
	}
	if _, err := c.Result(); err == nil || err.Error() != "boom" {
		t.Fatalf("failed cell's error = %v, want boom", err)
	}
	if _, leader := tb.Join("k"); !leader {
		t.Fatal("join after a failure did not lead afresh")
	}
}

// TestBoundEvictsOldest: bound+k distinct successful keys leave the bound
// kept; the first k lead again and the newest is a hit.
func TestBoundEvictsOldest(t *testing.T) {
	const bound, k = 8, 3
	tb := New[int](bound)
	fills := 0
	do := func(i int) bool {
		c, leader := tb.Do(fmt.Sprint(i), func() (int, error) { fills++; return i, nil })
		if v, err := c.Result(); err != nil || v != i {
			t.Fatalf("key %d = %d, %v", i, v, err)
		}
		return leader
	}
	for i := 0; i < bound+k; i++ {
		do(i)
	}
	if kept, _ := tb.Len(); kept != bound {
		t.Fatalf("%d kept after %d keys, want the bound %d", kept, bound+k, bound)
	}
	if do(bound + k - 1) {
		t.Error("the newest key led again instead of hitting")
	}
	for i := 0; i < k; i++ {
		if !do(i) {
			t.Errorf("evicted key %d was a hit", i)
		}
	}
	if fills != bound+2*k {
		t.Errorf("%d fills, want %d", fills, bound+2*k)
	}
	if kept, _ := tb.Len(); kept != bound {
		t.Fatalf("%d kept, want the bound %d", kept, bound)
	}
}

// TestDoPanicIsFailure: a fill that panics finishes its cell with the
// error "panic: <value>", the cell leaves the table, and the next Do
// fills again.
func TestDoPanicIsFailure(t *testing.T) {
	tb := New[int](4)
	c, leader := tb.Do("k", func() (int, error) { panic("boom") })
	if _, err := c.Result(); !leader || err == nil || err.Error() != "panic: boom" {
		t.Fatalf("panicking fill: leader %v, error %v; want a leader with \"panic: boom\"", leader, err)
	}
	if kept, inFlight := tb.Len(); kept != 0 || inFlight != 0 {
		t.Fatalf("a panicked cell stayed (%d kept, %d in flight)", kept, inFlight)
	}
	c, leader = tb.Do("k", func() (int, error) { return 7, nil })
	if v, err := c.Result(); !leader || err != nil || v != 7 {
		t.Fatalf("Do after a panic = %d, %v (leader %v), want a fresh fill of 7", v, err, leader)
	}
}

// TestTableRacesReset runs joins and finishes, some failing, against repeated
// resets under -race. Afterwards every cell the table still holds is kept
// and finished successfully, and Len counts exactly those.
func TestTableRacesReset(t *testing.T) {
	tb := New[string](8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", (g*7+i)%16)
				c, leader := tb.Join(key)
				if !leader {
					<-c.Done()
					continue
				}
				var err error
				if i%3 == 0 {
					err = errors.New("boom")
				}
				tb.Finish(key, c, key, err)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			tb.Reset()
			runtime.Gosched()
		}
	}()
	wg.Wait()
	for key, c := range tb.m {
		if v, ok := c.Ready(); !ok || v != key {
			t.Errorf("cell %s: value %q, ok %v after every finish", key, v, ok)
		}
	}
	if kept, inFlight := tb.Len(); kept != len(tb.m) || inFlight != 0 || kept > 8 {
		t.Fatalf("Len() = %d kept, %d in flight; the table holds %d cells, bound 8", kept, inFlight, len(tb.m))
	}
}
