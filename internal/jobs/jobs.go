// Package jobs is the long-compute substrate of the serving layer: a
// bounded queue of trace-simulation jobs with per-job cancellation, typed
// states, incremental progress, and completed results flowing into the
// content-addressed result store. It is deliberately HTTP-ignorant — the
// serve layer maps endpoints onto Submit/Get/Cancel and admission onto its
// weighted gate via the Admit hook.
//
// Lifecycle: queued → running → done | failed | canceled. A queued job
// canceled before it reaches a worker slot goes straight to canceled; a
// running job's context is checked by the simulator after every progress
// chunk and before every block of its series, so Cancel stops real work
// within one block of at most 4096 intervals, and the Admit release (gate
// capacity) is returned immediately after.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"nanometer/internal/repro"
	"nanometer/internal/result"
	"nanometer/internal/trace"
)

// State is a job's lifecycle state.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// ErrQueueFull rejects a submit when queued+running jobs are at MaxQueued.
var ErrQueueFull = errors.New("jobs: queue is full")

// ErrClosed rejects submits after Close.
var ErrClosed = errors.New("jobs: queue is closed")

// Config parameterizes a Queue. The zero value works: 2 workers, 32
// queued, 64 retained, no store, no admission.
type Config struct {
	// Workers bounds concurrently running simulations.
	Workers int
	// MaxQueued bounds queued+running jobs; submits past it fail with
	// ErrQueueFull (the client's backpressure signal).
	MaxQueued int
	// MaxFinished bounds retained terminal jobs; the oldest are forgotten
	// first (their results live on in the store).
	MaxFinished int
	// Store, when non-nil, is consulted on submit (an identical trace is
	// answered done-from-store without simulating) and receives every
	// successful result.
	Store repro.ResultStore
	// Admit, when non-nil, gates a job between dequeue and run — the hook
	// the serve layer points at its weighted admission gate (the trace is
	// passed so the caller can price by length). The returned release is
	// called when the job finishes or is canceled, which is what "DELETE
	// frees gate capacity" means mechanically.
	Admit func(ctx context.Context, tr *trace.Trace) (release func(), err error)
}

// Job is one submitted simulation. All fields are guarded by mu except the
// immutables (ID, Trace) and the channels.
type Job struct {
	// ID is the queue-assigned identity ("j1", "j2", ...).
	ID string
	// Trace is the validated document the job runs.
	Trace *trace.Trace

	cancel context.CancelFunc
	done   chan struct{}

	mu       sync.Mutex
	state    State            // guarded by mu
	cached   bool             // guarded by mu
	err      error            // guarded by mu
	res      *result.Result   // guarded by mu
	chunks   []trace.Progress // guarded by mu
	notify   chan struct{}    // guarded by mu
	created  time.Time        // guarded by mu
	started  time.Time        // guarded by mu
	finished time.Time        // guarded by mu
}

// Snapshot is a point-in-time view of a job, JSON-shaped for the API.
type Snapshot struct {
	ID    string `json:"id"`
	Trace string `json:"trace"`
	Key   string `json:"key"`
	State State  `json:"state"`
	// Cached marks a job answered from the result store without running.
	Cached bool   `json:"cached,omitempty"`
	Error  string `json:"error,omitempty"`
	// Progress is the latest snapshot (nil before the first chunk).
	Progress   *trace.Progress `json:"progress,omitempty"`
	CreatedAt  time.Time       `json:"created_at"`
	StartedAt  *time.Time      `json:"started_at,omitempty"`
	FinishedAt *time.Time      `json:"finished_at,omitempty"`
}

// Snapshot returns the job's current view.
func (j *Job) Snapshot() Snapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := Snapshot{
		ID:        j.ID,
		Trace:     j.Trace.Name,
		Key:       j.Trace.Key(),
		State:     j.state,
		Cached:    j.cached,
		CreatedAt: j.created,
	}
	if j.err != nil {
		s.Error = j.err.Error()
	}
	if n := len(j.chunks); n > 0 {
		p := j.chunks[n-1]
		s.Progress = &p
	}
	if !j.started.IsZero() {
		t := j.started
		s.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		s.FinishedAt = &t
	}
	return s
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Result returns the completed result. ok is false until the job is done;
// a failed or canceled job reports its error with ok false.
func (j *Job) Result() (res *result.Result, err error, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case StateDone:
		return j.res, nil, true
	case StateFailed, StateCanceled:
		return nil, j.err, false
	default:
		return nil, nil, false
	}
}

// State returns the job's current state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Chunks returns the progress snapshots from index since on, a channel
// that is closed when more arrive, and whether the job is terminal. A
// streamer loops: consume the slice, then wait on the channel or Done.
func (j *Job) Chunks(since int) (chunks []trace.Progress, more <-chan struct{}, terminal bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if since < 0 {
		since = 0
	}
	if since < len(j.chunks) {
		chunks = j.chunks[since:len(j.chunks):len(j.chunks)]
	}
	return chunks, j.notify, j.state.Terminal()
}

func (j *Job) appendChunk(p trace.Progress) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.chunks = append(j.chunks, p)
	close(j.notify)
	j.notify = make(chan struct{})
}

// setRunning transitions queued → running; returns false if the job was
// already canceled.
func (j *Job) setRunning() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.started = time.Now()
	return true
}

// Queue runs submitted jobs on a bounded worker set.
type Queue struct {
	cfg        Config
	baseCtx    context.Context
	baseCancel context.CancelFunc
	sem        chan struct{}
	wg         sync.WaitGroup

	// OnFinish, when set before any Submit, observes every terminal
	// transition (metrics hook). Called outside all locks.
	OnFinish func(s State, cached bool)

	mu     sync.Mutex
	jobs   map[string]*Job // guarded by mu
	order  []string        // guarded by mu
	active int             // guarded by mu
	seq    int             // guarded by mu
	closed bool            // guarded by mu
}

// New builds a Queue from cfg.
func New(cfg Config) *Queue {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.MaxQueued <= 0 {
		cfg.MaxQueued = 32
	}
	if cfg.MaxFinished <= 0 {
		cfg.MaxFinished = 64
	}
	// The queue is a lifecycle root: it owns its jobs' base context and
	// Close cancels it, so there is no caller ctx to thread.
	ctx, cancel := context.WithCancel(context.Background())
	return &Queue{
		cfg:        cfg,
		baseCtx:    ctx,
		baseCancel: cancel,
		sem:        make(chan struct{}, cfg.Workers),
		jobs:       make(map[string]*Job),
	}
}

// Submit enqueues a trace. An identical trace already in the result store
// (same ArtifactID and content key) is answered as an immediately-done job
// with Cached set — no simulation, no admission. Queue-full and closed
// queues error.
func (q *Queue) Submit(tr *trace.Trace) (*Job, error) {
	// Store consult before taking the queue lock: Get may touch disk.
	var cachedRes *result.Result
	if q.cfg.Store != nil {
		// One bounded local file read; the job's own cancelable context
		// does not exist yet (enqueue creates it under the queue lock).
		if res, ok := q.cfg.Store.Get(tr.ArtifactID(), tr.Key()); ok {
			cachedRes = res
		}
	}
	j, ctx, err := q.enqueue(tr, cachedRes)
	if err != nil {
		return nil, err
	}
	if cachedRes != nil {
		if q.OnFinish != nil {
			q.OnFinish(StateDone, true)
		}
		return j, nil
	}
	go q.run(ctx, j)
	return j, nil
}

// enqueue registers a job for tr under q.mu. A job answered from the store
// (cached non-nil) is born done; any other is counted active and in q.wg
// before q.mu is released, so a Close that follows waits for it.
func (q *Queue) enqueue(tr *trace.Trace, cached *result.Result) (*Job, context.Context, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil, nil, ErrClosed
	}
	if cached == nil && q.active >= q.cfg.MaxQueued {
		return nil, nil, ErrQueueFull
	}
	q.seq++
	ctx, cancel := context.WithCancel(q.baseCtx)
	now := time.Now()
	state, finished := StateQueued, time.Time{}
	if cached != nil {
		state, finished = StateDone, now
	}
	j := &Job{
		ID:       fmt.Sprintf("j%d", q.seq),
		Trace:    tr,
		cancel:   cancel,
		done:     make(chan struct{}),
		state:    state,
		cached:   cached != nil,
		res:      cached,
		notify:   make(chan struct{}),
		created:  now,
		finished: finished,
	}
	q.jobs[j.ID] = j
	q.order = append(q.order, j.ID)
	if cached != nil {
		cancel()
		close(j.done)
	} else {
		q.active++
		q.wg.Add(1)
	}
	q.evictLocked()
	return j, ctx, nil
}

// Get returns a job by ID (false once it has been evicted or never was).
func (q *Queue) Get(id string) (*Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	return j, ok
}

// Jobs returns every retained job in creation order.
func (q *Queue) Jobs() []*Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]*Job, 0, len(q.order))
	for _, id := range q.order {
		if j, ok := q.jobs[id]; ok {
			out = append(out, j)
		}
	}
	return out
}

// Stats reports the queue's live counts (metrics hook).
func (q *Queue) Stats() (active, retained int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.active, len(q.jobs)
}

// Cancel cancels a job. Queued jobs go terminal without running; running
// jobs stop within one block of at most 4096 simulated intervals (see
// trace.Run). Canceling a terminal
// job is a no-op. Returns false for unknown IDs.
func (q *Queue) Cancel(id string) bool {
	j, ok := q.Get(id)
	if !ok {
		return false
	}
	j.cancel()
	return true
}

// Close cancels every job and waits for the workers to drain. The queue
// rejects further submits.
func (q *Queue) Close() {
	q.markClosed()
	q.baseCancel()
	q.wg.Wait()
}

func (q *Queue) markClosed() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
}

// run executes one job: worker slot → admission → simulate → persist.
func (q *Queue) run(ctx context.Context, j *Job) {
	defer q.wg.Done()
	select {
	case q.sem <- struct{}{}:
	case <-ctx.Done():
		q.finish(j, nil, ctx.Err())
		return
	}
	defer func() { <-q.sem }()
	if err := ctx.Err(); err != nil {
		q.finish(j, nil, err)
		return
	}
	release := func() {}
	if q.cfg.Admit != nil {
		var err error
		if release, err = q.cfg.Admit(ctx, j.Trace); err != nil {
			q.finish(j, nil, fmt.Errorf("admission: %w", err))
			return
		}
	}
	// The admission is released on every exit path below — including
	// cancellation — and before the job turns terminal, so a DELETE
	// returns the job's gate units as soon as the simulator observes ctx,
	// and whoever sees the terminal state sees the units back.
	if !j.setRunning() {
		release()
		q.finish(j, nil, ctx.Err())
		return
	}
	res, err := j.Trace.Run(ctx, j.appendChunk)
	if err == nil && q.cfg.Store != nil {
		q.cfg.Store.Put(j.Trace.ArtifactID(), j.Trace.Key(), res)
	}
	release()
	q.finish(j, res, err)
}

// finish releases a job's queue slot and moves the job to its terminal
// state, in that order and both under q.mu: a caller that observes the
// terminal state and resubmits is ordered after the release, so it never
// sees the slot still taken.
func (q *Queue) finish(j *Job, res *result.Result, err error) {
	state := StateDone
	switch {
	case err == nil:
		state = StateDone
	case errors.Is(err, context.Canceled):
		state = StateCanceled
	default:
		state = StateFailed
	}
	q.settle(j, state, res, err)
	if q.OnFinish != nil {
		q.OnFinish(state, false)
	}
}

// settle releases j's queue slot and makes j terminal, under q.mu.
func (q *Queue) settle(j *Job, state State, res *result.Result, err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.active--
	j.terminate(state, res, err)
	close(j.done)
	q.evictLocked()
}

// terminate moves j to its terminal state and wakes its progress streams.
func (j *Job) terminate(state State, res *result.Result, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = state
	j.res = res
	j.err = err
	if state == StateCanceled {
		j.err = errors.New("jobs: canceled")
	}
	j.finished = time.Now()
	close(j.notify)
	j.notify = make(chan struct{})
}

// evictLocked forgets the oldest terminal jobs past MaxFinished. Requires
// q.mu held (job mutexes nest inside the queue mutex; no caller holds a
// job mutex while acquiring q.mu).
func (q *Queue) evictLocked() {
	terminal := 0
	for _, id := range q.order {
		if j, ok := q.jobs[id]; ok && j.State().Terminal() {
			terminal++
		}
	}
	if terminal <= q.cfg.MaxFinished {
		return
	}
	drop := terminal - q.cfg.MaxFinished
	kept := q.order[:0]
	for _, id := range q.order {
		j, ok := q.jobs[id]
		if !ok {
			continue
		}
		if drop > 0 && j.State().Terminal() {
			delete(q.jobs, id)
			drop--
			continue
		}
		kept = append(kept, id)
	}
	q.order = kept
}
