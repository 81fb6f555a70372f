package jobs

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nanometer/internal/result"
	"nanometer/internal/trace"
)

// memStore is an in-memory repro.ResultStore.
type memStore struct {
	mu   sync.Mutex
	m    map[string]*result.Result
	gets atomic.Int64
	hits atomic.Int64
	puts atomic.Int64
}

func newMemStore() *memStore { return &memStore{m: make(map[string]*result.Result)} }

func (s *memStore) Get(artifactID, key string) (*result.Result, bool) {
	s.gets.Add(1)
	s.mu.Lock()
	defer s.mu.Unlock()
	res, ok := s.m[artifactID+"\x00"+key]
	if ok {
		s.hits.Add(1)
	}
	return res, ok
}

func (s *memStore) Put(artifactID, key string, res *result.Result) bool {
	s.puts.Add(1)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[artifactID+"\x00"+key] = res
	return true
}

// waitGoroutines polls until at most want goroutines run.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want at most %d", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

func shortTrace(name string) *trace.Trace {
	return trace.MustParse(fmt.Sprintf(
		`{"name":%q,"dt_seconds":0.01,"generator":{"kind":"workload","intervals":2000}}`, name))
}

func longTrace(name string) *trace.Trace {
	return trace.MustParse(fmt.Sprintf(
		`{"name":%q,"dt_seconds":0.01,"generator":{"kind":"workload","intervals":80000000}}`, name))
}

func waitState(t *testing.T, j *Job, want State) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s stuck in %s waiting for %s", j.ID, j.State(), want)
	}
	if got := j.State(); got != want {
		t.Fatalf("job %s finished %s, want %s", j.ID, got, want)
	}
}

func TestJobLifecycleDone(t *testing.T) {
	st := newMemStore()
	q := New(Config{Workers: 2, Store: st})
	defer q.Close()
	j, err := q.Submit(shortTrace("lc"))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateDone)
	res, jerr, ok := j.Result()
	if !ok || jerr != nil || res == nil {
		t.Fatalf("Result() = %v, %v, %v", res, jerr, ok)
	}
	if res.ID != "trace:lc" {
		t.Fatalf("result ID %q", res.ID)
	}
	chunks, _, terminal := j.Chunks(0)
	if !terminal || len(chunks) == 0 {
		t.Fatalf("chunks after done: %d, terminal %v", len(chunks), terminal)
	}
	if last := chunks[len(chunks)-1]; last.Done != last.Total {
		t.Fatalf("last chunk %d/%d", last.Done, last.Total)
	}
	if st.puts.Load() != 1 {
		t.Fatalf("store puts %d, want 1", st.puts.Load())
	}
	snap := j.Snapshot()
	if snap.State != StateDone || snap.Progress == nil || snap.FinishedAt == nil {
		t.Fatalf("snapshot %+v", snap)
	}
}

func TestSubmitStoreHit(t *testing.T) {
	st := newMemStore()
	q := New(Config{Workers: 1, Store: st})
	defer q.Close()
	j1, err := q.Submit(shortTrace("hit"))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j1, StateDone)
	j2, err := q.Submit(shortTrace("hit"))
	if err != nil {
		t.Fatal(err)
	}
	snap := j2.Snapshot()
	if snap.State != StateDone || !snap.Cached {
		t.Fatalf("resubmit snapshot %+v, want done-from-store", snap)
	}
	if st.puts.Load() != 1 {
		t.Fatalf("store puts %d after resubmit, want 1 (no second simulation)", st.puts.Load())
	}
	// A different trace under the same name is a different key: no hit.
	j3, err := q.Submit(trace.MustParse(
		`{"name":"hit","dt_seconds":0.01,"generator":{"kind":"workload","intervals":2001}}`))
	if err != nil {
		t.Fatal(err)
	}
	if j3.Snapshot().Cached {
		t.Fatal("distinct content reported cached")
	}
	waitState(t, j3, StateDone)
}

// TestCancelRunning pins the tentpole cancellation contract: a running
// job's DELETE stops the simulator mid-trace (progress strictly short of
// total) and returns the admission release immediately.
func TestCancelRunning(t *testing.T) {
	var held atomic.Int64
	q := New(Config{Workers: 1, Admit: func(ctx context.Context, _ *trace.Trace) (func(), error) {
		held.Add(1)
		return func() { held.Add(-1) }, nil
	}})
	defer q.Close()
	j, err := q.Submit(longTrace("cancelme"))
	if err != nil {
		t.Fatal(err)
	}
	// Wait for real progress so the cancel lands mid-simulation.
	deadline := time.After(30 * time.Second)
	for {
		if snap := j.Snapshot(); snap.Progress != nil && snap.Progress.Done > 0 {
			break
		}
		_, more, terminal := j.Chunks(0)
		if terminal {
			t.Fatalf("job finished before cancel: %s", j.State())
		}
		select {
		case <-more:
		case <-deadline:
			t.Fatal("no progress before deadline")
		case <-j.Done():
			t.Fatalf("job finished before cancel: %s", j.State())
		}
	}
	if !q.Cancel(j.ID) {
		t.Fatal("cancel returned false")
	}
	waitState(t, j, StateCanceled)
	if n := held.Load(); n != 0 {
		t.Fatalf("%d admission units still held after cancel", n)
	}
	snap := j.Snapshot()
	if snap.Progress == nil || snap.Progress.Done >= snap.Progress.Total {
		t.Fatalf("canceled job progress %+v, want partial", snap.Progress)
	}
	if _, _, ok := j.Result(); ok {
		t.Fatal("canceled job has a result")
	}
}

func TestCancelQueued(t *testing.T) {
	q := New(Config{Workers: 1})
	defer q.Close()
	blocker, err := q.Submit(longTrace("blocker"))
	if err != nil {
		t.Fatal(err)
	}
	queued, err := q.Submit(shortTrace("queued"))
	if err != nil {
		t.Fatal(err)
	}
	q.Cancel(queued.ID)
	waitState(t, queued, StateCanceled)
	if snap := queued.Snapshot(); snap.Progress != nil {
		t.Fatalf("queued job ran: %+v", snap.Progress)
	}
	q.Cancel(blocker.ID)
	waitState(t, blocker, StateCanceled)
}

func TestQueueFull(t *testing.T) {
	q := New(Config{Workers: 1, MaxQueued: 2})
	defer q.Close()
	a, _ := q.Submit(longTrace("a"))
	b, _ := q.Submit(longTrace("b"))
	if _, err := q.Submit(shortTrace("c")); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit: %v, want ErrQueueFull", err)
	}
	q.Cancel(a.ID)
	waitState(t, a, StateCanceled)
	if _, err := q.Submit(shortTrace("c")); err != nil {
		t.Fatalf("submit after cancel freed a slot: %v", err)
	}
	q.Cancel(b.ID)
}

func TestAdmitRejectionFails(t *testing.T) {
	boom := errors.New("gate closed")
	q := New(Config{Workers: 1, Admit: func(context.Context, *trace.Trace) (func(), error) {
		return nil, boom
	}})
	defer q.Close()
	j, err := q.Submit(shortTrace("rejected"))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateFailed)
	if snap := j.Snapshot(); snap.Error == "" {
		t.Fatal("failed job carries no error")
	}
}

// TestCloseCancelsEverything: Close with one job running and one queued
// cancels both and returns only once both run goroutines have finished
// (each job's OnFinish has run), leaving no goroutine behind.
func TestCloseCancelsEverything(t *testing.T) {
	baseline := runtime.NumGoroutine()
	q := New(Config{Workers: 1})
	var finished atomic.Int64
	q.OnFinish = func(State, bool) {
		// A slow last step: a Close that does not wait returns before it.
		time.Sleep(20 * time.Millisecond)
		finished.Add(1)
	}
	running, _ := q.Submit(longTrace("r"))
	for running.State() != StateRunning {
		time.Sleep(time.Millisecond)
	}
	queued, _ := q.Submit(longTrace("q"))
	closed := make(chan struct{})
	go func() { q.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(30 * time.Second):
		t.Fatal("Close did not return")
	}
	if n := finished.Load(); n != 2 {
		t.Fatalf("Close returned with %d of 2 jobs finished", n)
	}
	waitGoroutines(t, baseline)
	if s := running.State(); s != StateCanceled {
		t.Fatalf("running job %s after Close", s)
	}
	if s := queued.State(); s != StateCanceled {
		t.Fatalf("queued job %s after Close", s)
	}
	if _, err := q.Submit(shortTrace("late")); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v", err)
	}
}

// TestCloseWaitsForRacingSubmit races Submit against Close on fresh
// queues: a job Submit accepted must be counted before Close can wait, so
// its OnFinish has run by the time Close returns. Under -race a job counted
// after Close's wait also shows as WaitGroup.Add racing Wait.
func TestCloseWaitsForRacingSubmit(t *testing.T) {
	tr := shortTrace("racing")
	for i := 0; i < 20000; i++ {
		q := New(Config{Workers: 1})
		var closed atomic.Bool
		late := make(chan bool, 1)
		q.OnFinish = func(State, bool) { late <- closed.Load() }
		submitted := make(chan error, 1)
		go func() {
			_, err := q.Submit(tr)
			submitted <- err
		}()
		q.Close()
		closed.Store(true)
		if err := <-submitted; err == nil && <-late {
			t.Fatalf("iteration %d: an accepted job finished after Close returned", i)
		}
	}
}

func TestFinishedEviction(t *testing.T) {
	q := New(Config{Workers: 2, MaxFinished: 3})
	defer q.Close()
	var ids []string
	for i := 0; i < 6; i++ {
		j, err := q.Submit(shortTrace(fmt.Sprintf("e%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, j, StateDone)
		ids = append(ids, j.ID)
	}
	if _, retained := q.Stats(); retained != 3 {
		t.Fatalf("retained %d, want 3", retained)
	}
	if _, ok := q.Get(ids[0]); ok {
		t.Fatal("oldest job survived eviction")
	}
	if _, ok := q.Get(ids[5]); !ok {
		t.Fatal("newest job evicted")
	}
}

// TestConcurrentSubmitPollCancel is the satellite race test: hammer one
// queue with concurrent submits, polls, streams, and cancels under -race.
func TestConcurrentSubmitPollCancel(t *testing.T) {
	st := newMemStore()
	q := New(Config{Workers: 4, MaxQueued: 64, Store: st})
	defer q.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				j, err := q.Submit(shortTrace(fmt.Sprintf("race-%d-%d", g, i%3)))
				if err != nil {
					if errors.Is(err, ErrQueueFull) {
						continue
					}
					t.Errorf("submit: %v", err)
					return
				}
				// Interleave polling, streaming, and cancels.
				j.Snapshot()
				since := 0
				for k := 0; k < 100; k++ {
					chunks, more, terminal := j.Chunks(since)
					since += len(chunks)
					if terminal {
						break
					}
					if i%2 == 0 && k == 1 {
						q.Cancel(j.ID)
					}
					select {
					case <-more:
					case <-j.Done():
					}
				}
				<-j.Done()
				if s := j.State(); !s.Terminal() {
					t.Errorf("non-terminal state %s after Done", s)
				}
				j.Snapshot()
			}
		}(g)
	}
	wg.Wait()
}
