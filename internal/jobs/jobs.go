// Package jobs is the bounded async job queue behind the simulation
// service: submissions return immediately with a job ID, a fixed pool
// of workers executes runs, and clients poll, stream, or block on the
// job's completion. The queue is multi-tenant fair — workers pick the
// next job round-robin across tenants, so one tenant submitting ten
// thousand runs cannot starve another's single request — and applies
// backpressure by rejecting submissions past a global and a per-tenant
// queue-depth bound instead of buffering without limit.
//
// Jobs move queued → running → done|failed|cancelled. Cancelling a
// queued job removes it immediately; cancelling a running job cancels
// its context and the runner is expected to observe it between
// progress steps. Drain is the graceful-shutdown path: stop accepting,
// cancel everything still queued, and give running jobs a deadline to
// finish before their contexts are cancelled too.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"
)

// State is a job's lifecycle position.
type State int

const (
	Queued State = iota
	Running
	Done
	Failed
	Cancelled
)

// String returns the lowercase wire name.
func (s State) String() string {
	switch s {
	case Queued:
		return "queued"
	case Running:
		return "running"
	case Done:
		return "done"
	case Failed:
		return "failed"
	case Cancelled:
		return "cancelled"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s == Done || s == Failed || s == Cancelled }

// Submission errors, distinguishable so the HTTP layer can map them to
// status codes (429 for backpressure, 503 for draining).
var (
	ErrQueueFull  = errors.New("jobs: queue full")
	ErrTenantFull = errors.New("jobs: tenant queue full")
	ErrDraining   = errors.New("jobs: queue draining")
	ErrNotFound   = errors.New("jobs: job not found")
	ErrTerminal   = errors.New("jobs: job already terminal")
)

// Runner executes one job. It must return promptly once ctx is
// cancelled (the simulation service checks between progress chunks).
// The returned bytes become the job's result.
type Runner func(ctx context.Context, j *Job) ([]byte, error)

// Config tunes the queue.
type Config struct {
	// Workers is the executor pool size (<= 0 means GOMAXPROCS).
	Workers int
	// MaxQueued bounds jobs waiting across all tenants (<= 0 means
	// 4096). Submissions past it fail with ErrQueueFull.
	MaxQueued int
	// MaxQueuedPerTenant bounds one tenant's waiting jobs (<= 0 means
	// MaxQueued). Submissions past it fail with ErrTenantFull.
	MaxQueuedPerTenant int
	// MaxTerminal bounds how many finished jobs stay queryable; the
	// oldest terminal jobs are forgotten past it (<= 0 means 65536).
	MaxTerminal int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueued <= 0 {
		c.MaxQueued = 4096
	}
	if c.MaxQueuedPerTenant <= 0 {
		c.MaxQueuedPerTenant = c.MaxQueued
	}
	if c.MaxTerminal <= 0 {
		c.MaxTerminal = 65536
	}
	return c
}

// Job is one unit of work. All mutable state is guarded by the owning
// queue's mutex; accessors take it.
type Job struct {
	q       *Queue
	id      string
	seq     uint64
	tenant  string
	payload any

	state      State
	err        string
	result     []byte
	cached     bool
	cancelled  bool // cancel requested while running
	cancelCtx  context.CancelFunc
	submitted  time.Time
	started    time.Time
	finished   time.Time
	done       chan struct{}
	subs       []chan any
	subClosed  bool
	progressed uint64
}

// ID returns the job's identifier ("j1", "j2", …).
func (j *Job) ID() string { return j.id }

// Tenant returns the submitting tenant.
func (j *Job) Tenant() string { return j.tenant }

// Payload returns the submission payload, or nil once the job is
// terminal: a finished job keeps its status and result, not its inputs.
func (j *Job) Payload() any {
	j.q.mu.Lock()
	defer j.q.mu.Unlock()
	return j.payload
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// State returns the current lifecycle state.
func (j *Job) State() State {
	j.q.mu.Lock()
	defer j.q.mu.Unlock()
	return j.state
}

// Result returns the result bytes and error message; valid once Done
// is closed. The byte slice must be treated as immutable.
func (j *Job) Result() ([]byte, string) {
	j.q.mu.Lock()
	defer j.q.mu.Unlock()
	return j.result, j.err
}

// Cached reports whether the result was served from the result cache
// without executing.
func (j *Job) Cached() bool {
	j.q.mu.Lock()
	defer j.q.mu.Unlock()
	return j.cached
}

// Status is a point-in-time job snapshot for the HTTP surface.
type Status struct {
	ID          string  `json:"id"`
	Tenant      string  `json:"tenant"`
	State       string  `json:"state"`
	Cached      bool    `json:"cached,omitempty"`
	Error       string  `json:"error,omitempty"`
	SubmittedAt string  `json:"submittedAt"`
	WallSeconds float64 `json:"wallSeconds,omitempty"`
	Progress    uint64  `json:"progressEvents,omitempty"`
}

// Snapshot returns the job's status.
func (j *Job) Snapshot() Status {
	j.q.mu.Lock()
	defer j.q.mu.Unlock()
	st := Status{
		ID:          j.id,
		Tenant:      j.tenant,
		State:       j.state.String(),
		Cached:      j.cached,
		Error:       j.err,
		SubmittedAt: j.submitted.UTC().Format(time.RFC3339Nano),
		Progress:    j.progressed,
	}
	if !j.started.IsZero() {
		end := j.finished
		if end.IsZero() {
			end = time.Now()
		}
		st.WallSeconds = end.Sub(j.started).Seconds()
	}
	return st
}

// Publish fans v out to the job's subscribers. Sends never block:
// a subscriber that has fallen 64 events behind loses the oldest-
// unread ones (progress is lossy by design; the terminal result is
// delivered via Done, which cannot be missed).
func (j *Job) Publish(v any) {
	j.q.mu.Lock()
	j.progressed++
	subs := append([]chan any(nil), j.subs...)
	j.q.mu.Unlock()
	for _, ch := range subs {
		select {
		case ch <- v:
		default:
		}
	}
}

// Subscribe registers a progress listener; the returned cancel must be
// called (it is idempotent). Events published before Subscribe are not
// replayed.
func (j *Job) Subscribe() (<-chan any, func()) {
	ch := make(chan any, 64)
	j.q.mu.Lock()
	j.subs = append(j.subs, ch)
	j.q.mu.Unlock()
	var once sync.Once
	cancel := func() {
		once.Do(func() {
			j.q.mu.Lock()
			for i, c := range j.subs {
				if c == ch {
					j.subs = append(j.subs[:i], j.subs[i+1:]...)
					break
				}
			}
			j.q.mu.Unlock()
		})
	}
	return ch, cancel
}

// Counters is a snapshot of the queue's lifetime counters.
type Counters struct {
	Submitted uint64
	Completed uint64 // reached Done (includes cache-hit completions)
	Failed    uint64
	Cancelled uint64
	Rejected  uint64 // backpressure + draining rejections
	CacheHits uint64 // SubmitCompleted fast-path completions
}

// tenantQ is one tenant's FIFO of queued jobs.
type tenantQ struct {
	name string
	jobs []*Job
	head int
}

func (t *tenantQ) depth() int { return len(t.jobs) - t.head }

func (t *tenantQ) push(j *Job) { t.jobs = append(t.jobs, j) }

func (t *tenantQ) pop() *Job {
	j := t.jobs[t.head]
	t.jobs[t.head] = nil
	t.head++
	if t.head == len(t.jobs) {
		t.jobs = t.jobs[:0]
		t.head = 0
	}
	return j
}

// remove deletes job j from the FIFO (cancellation of a queued job).
func (t *tenantQ) remove(j *Job) bool {
	for i := t.head; i < len(t.jobs); i++ {
		if t.jobs[i] == j {
			copy(t.jobs[i:], t.jobs[i+1:])
			t.jobs = t.jobs[:len(t.jobs)-1]
			return true
		}
	}
	return false
}

// Queue is the bounded, tenant-fair job queue. Use New; the zero
// value is not usable.
type Queue struct {
	cfg Config
	run Runner

	mu       sync.Mutex
	cond     *sync.Cond
	byID     map[string]*Job
	tenants  map[string]*tenantQ
	ring     []*tenantQ // tenants with queued work, round-robin order
	rr       int
	queued   int
	running  int
	nextSeq  uint64
	draining bool
	stopped  bool
	workers  sync.WaitGroup
	ctrs     Counters
	terminal []*Job // FIFO of finished jobs for MaxTerminal eviction
}

// New builds a queue; call Start to launch the workers.
func New(cfg Config, run Runner) *Queue {
	q := &Queue{
		cfg:     cfg.withDefaults(),
		run:     run,
		byID:    make(map[string]*Job),
		tenants: make(map[string]*tenantQ),
	}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// Start launches the worker pool.
func (q *Queue) Start() {
	q.workers.Add(q.cfg.Workers)
	for w := 0; w < q.cfg.Workers; w++ {
		go q.worker()
	}
}

// Submit enqueues a job for tenant. It returns immediately; the job
// runs when a worker and the tenant's round-robin turn allow.
func (q *Queue) Submit(tenant string, payload any) (*Job, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.draining {
		q.ctrs.Rejected++
		return nil, ErrDraining
	}
	if q.queued >= q.cfg.MaxQueued {
		q.ctrs.Rejected++
		return nil, ErrQueueFull
	}
	tq := q.tenants[tenant]
	if tq == nil {
		tq = &tenantQ{name: tenant}
		q.tenants[tenant] = tq
	}
	if tq.depth() >= q.cfg.MaxQueuedPerTenant {
		q.ctrs.Rejected++
		return nil, ErrTenantFull
	}
	j := q.newJobLocked(tenant, payload)
	if tq.depth() == 0 {
		q.ring = append(q.ring, tq)
	}
	tq.push(j)
	q.queued++
	q.cond.Signal()
	return j, nil
}

// SubmitCompleted records an already-done job — the result-cache hit
// path: the job is born terminal with the cached bytes, no worker
// involvement, and counts as a completion and a cache hit.
func (q *Queue) SubmitCompleted(tenant string, payload any, result []byte) (*Job, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.draining {
		q.ctrs.Rejected++
		return nil, ErrDraining
	}
	j := q.newJobLocked(tenant, payload)
	now := time.Now()
	j.state = Done
	j.cached = true
	j.result = result
	j.started = now
	j.finished = now
	close(j.done)
	q.ctrs.Completed++
	q.ctrs.CacheHits++
	q.retireLocked(j)
	return j, nil
}

// newJobLocked allocates and registers a queued job; callers hold
// q.mu.
func (q *Queue) newJobLocked(tenant string, payload any) *Job {
	q.nextSeq++
	j := &Job{
		q:         q,
		seq:       q.nextSeq,
		id:        "j" + strconv.FormatUint(q.nextSeq, 10),
		tenant:    tenant,
		payload:   payload,
		state:     Queued,
		submitted: time.Now(),
		done:      make(chan struct{}),
	}
	q.byID[j.id] = j
	q.ctrs.Submitted++
	return j
}

// Get returns the job with the given ID.
func (q *Queue) Get(id string) (*Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.byID[id]
	return j, ok
}

// Jobs returns all known jobs in submission order, optionally
// filtered by tenant ("" = all).
func (q *Queue) Jobs(tenant string) []*Job {
	q.mu.Lock()
	out := make([]*Job, 0, len(q.byID))
	for _, j := range q.byID {
		if tenant == "" || j.tenant == tenant {
			out = append(out, j)
		}
	}
	q.mu.Unlock()
	sort.Slice(out, func(i, k int) bool { return out[i].seq < out[k].seq })
	return out
}

// Cancel cancels the job: a queued job is removed immediately, a
// running job has its context cancelled (the runner unwinds at its
// next progress step). Terminal jobs return ErrTerminal.
func (q *Queue) Cancel(id string) error {
	q.mu.Lock()
	j, ok := q.byID[id]
	if !ok {
		q.mu.Unlock()
		return ErrNotFound
	}
	switch j.state {
	case Queued:
		q.cancelQueuedLocked(j)
		q.mu.Unlock()
		return nil
	case Running:
		j.cancelled = true
		cancel := j.cancelCtx
		q.mu.Unlock()
		cancel()
		return nil
	default:
		q.mu.Unlock()
		return ErrTerminal
	}
}

// cancelQueuedLocked removes a still-queued job from its tenant FIFO
// and marks it cancelled; callers hold q.mu.
func (q *Queue) cancelQueuedLocked(j *Job) {
	tq := q.tenants[j.tenant]
	if tq != nil && tq.remove(j) {
		q.queued--
		if tq.depth() == 0 {
			q.dropFromRingLocked(tq)
		}
	}
	q.finishCancelledLocked(j)
}

// finishCancelledLocked marks a dequeued job cancelled and retires it;
// callers hold q.mu.
func (q *Queue) finishCancelledLocked(j *Job) {
	j.state = Cancelled
	j.finished = time.Now()
	close(j.done)
	q.ctrs.Cancelled++
	q.retireLocked(j)
}

func (q *Queue) dropFromRingLocked(tq *tenantQ) {
	for i, r := range q.ring {
		if r == tq {
			q.ring = append(q.ring[:i], q.ring[i+1:]...)
			if q.rr > i {
				q.rr--
			}
			if len(q.ring) > 0 {
				q.rr %= len(q.ring)
			} else {
				q.rr = 0
			}
			return
		}
	}
}

// nextLocked pops the next job round-robin across tenants; callers
// hold q.mu. Returns nil when nothing is queued.
func (q *Queue) nextLocked() *Job {
	if len(q.ring) == 0 {
		return nil
	}
	q.rr %= len(q.ring)
	tq := q.ring[q.rr]
	j := tq.pop()
	q.queued--
	if tq.depth() == 0 {
		q.ring = append(q.ring[:q.rr], q.ring[q.rr+1:]...)
		if len(q.ring) > 0 {
			q.rr %= len(q.ring)
		} else {
			q.rr = 0
		}
	} else {
		q.rr++ // fairness: next tenant gets the next worker
	}
	return j
}

// worker executes jobs until the queue stops.
func (q *Queue) worker() {
	defer q.workers.Done()
	for {
		q.mu.Lock()
		var j *Job
		for {
			if j = q.nextLocked(); j != nil {
				break
			}
			if q.stopped {
				q.mu.Unlock()
				return
			}
			q.cond.Wait()
		}
		ctx, cancel := context.WithCancel(context.Background())
		j.state = Running
		j.started = time.Now()
		j.cancelCtx = cancel
		q.running++
		q.mu.Unlock()

		result, err := q.run(ctx, j)
		cancel()

		q.mu.Lock()
		q.running--
		j.finished = time.Now()
		j.cancelCtx = nil
		switch {
		case err == nil:
			j.state = Done
			j.result = result
			q.ctrs.Completed++
		case j.cancelled || errors.Is(err, context.Canceled):
			j.state = Cancelled
			j.err = "cancelled"
			q.ctrs.Cancelled++
		default:
			j.state = Failed
			j.err = err.Error()
			q.ctrs.Failed++
		}
		close(j.done)
		q.retireLocked(j)
		if q.draining && q.running == 0 && q.queued == 0 {
			q.cond.Broadcast() // wake Drain's waiter
		}
		q.mu.Unlock()
	}
}

// retireLocked drops j's payload, appends j to the terminal FIFO and
// forgets the oldest finished jobs past MaxTerminal; callers hold q.mu.
// The FIFO keeps up to MaxTerminal jobs queryable, so a payload kept
// past the run would hold that many inputs (a scenario payload carries
// every VM's demand trace) for status lookups that never read them.
func (q *Queue) retireLocked(j *Job) {
	j.payload = nil
	q.terminal = append(q.terminal, j)
	for len(q.terminal) > q.cfg.MaxTerminal {
		old := q.terminal[0]
		q.terminal[0] = nil
		q.terminal = q.terminal[1:]
		delete(q.byID, old.id)
	}
}

// Depth returns the queued and running job counts.
func (q *Queue) Depth() (queued, running int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.queued, q.running
}

// Counters returns the lifetime counters.
func (q *Queue) Counters() Counters {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.ctrs
}

// Draining reports whether the queue has stopped accepting work.
func (q *Queue) Draining() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.draining
}

// Drain shuts the queue down gracefully: new submissions fail with
// ErrDraining, still-queued jobs are cancelled immediately, and
// running jobs get until ctx expires to finish before their contexts
// are cancelled. Drain returns once every job is terminal and the
// workers have exited; the error reports whether running jobs had to
// be force-cancelled.
func (q *Queue) Drain(ctx context.Context) error {
	q.mu.Lock()
	if q.draining {
		q.mu.Unlock()
		return nil
	}
	q.draining = true
	// Cancel everything still queued, FIFO per tenant.
	for len(q.ring) > 0 {
		if j := q.nextLocked(); j != nil {
			q.finishCancelledLocked(j)
		}
	}
	q.mu.Unlock()

	// Give running jobs until the deadline.
	settled := make(chan struct{})
	go func() {
		q.mu.Lock()
		for q.running > 0 {
			q.cond.Wait()
		}
		q.mu.Unlock()
		close(settled)
	}()
	forced := false
	select {
	case <-settled:
	case <-ctx.Done():
		forced = true
		q.mu.Lock()
		for _, j := range q.byID {
			if j.state == Running && j.cancelCtx != nil {
				j.cancelled = true
				j.cancelCtx()
			}
		}
		q.mu.Unlock()
		<-settled // runners observe cancellation and unwind
	}

	// Retire the workers.
	q.mu.Lock()
	q.stopped = true
	q.cond.Broadcast()
	q.mu.Unlock()
	q.workers.Wait()
	if forced {
		return fmt.Errorf("jobs: drain deadline expired; running jobs were cancelled")
	}
	return nil
}
