package jobs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// sleepRunner returns a runner that blocks until its context is
// cancelled or release is closed.
func sleepRunner(release <-chan struct{}) Runner {
	return func(ctx context.Context, j *Job) ([]byte, error) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-release:
			return []byte(j.ID()), nil
		}
	}
}

func TestSubmitRunsToDone(t *testing.T) {
	q := New(Config{Workers: 2}, func(ctx context.Context, j *Job) ([]byte, error) {
		return []byte("result-" + j.ID()), nil
	})
	q.Start()
	defer q.Drain(context.Background())
	j, err := q.Submit("t1", nil)
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	if j.State() != Done {
		t.Fatalf("state = %v", j.State())
	}
	res, errMsg := j.Result()
	if string(res) != "result-j1" || errMsg != "" {
		t.Fatalf("result = %q, err = %q", res, errMsg)
	}
	if c := q.Counters(); c.Submitted != 1 || c.Completed != 1 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestFailedJobCarriesError(t *testing.T) {
	q := New(Config{Workers: 1}, func(ctx context.Context, j *Job) ([]byte, error) {
		return nil, errors.New("boom")
	})
	q.Start()
	defer q.Drain(context.Background())
	j, _ := q.Submit("t1", nil)
	<-j.Done()
	if j.State() != Failed {
		t.Fatalf("state = %v", j.State())
	}
	if _, errMsg := j.Result(); errMsg != "boom" {
		t.Fatalf("err = %q", errMsg)
	}
}

func TestBackpressureGlobalAndPerTenant(t *testing.T) {
	release := make(chan struct{})
	q := New(Config{Workers: 1, MaxQueued: 3, MaxQueuedPerTenant: 2}, sleepRunner(release))
	q.Start()
	defer func() { close(release); q.Drain(context.Background()) }()
	// Occupy the single worker so subsequent submissions stay queued.
	running, _ := q.Submit("t0", nil)
	waitState(t, running, Running)

	if _, err := q.Submit("a", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit("a", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit("a", nil); !errors.Is(err, ErrTenantFull) {
		t.Fatalf("third same-tenant submit: %v, want ErrTenantFull", err)
	}
	if _, err := q.Submit("b", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit("c", nil); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit past global bound: %v, want ErrQueueFull", err)
	}
	if c := q.Counters(); c.Rejected != 2 {
		t.Fatalf("rejected = %d, want 2", c.Rejected)
	}
}

func TestTenantFairness(t *testing.T) {
	// One worker, tenant A floods 8 jobs, then tenant B submits one.
	// Fair round-robin must run B's job second, not ninth.
	var mu sync.Mutex
	var order []string
	step := make(chan struct{}, 16)
	q := New(Config{Workers: 1}, func(ctx context.Context, j *Job) ([]byte, error) {
		mu.Lock()
		order = append(order, j.Tenant())
		mu.Unlock()
		<-step
		return nil, nil
	})
	var jobs []*Job
	for i := 0; i < 8; i++ {
		j, err := q.Submit("a", nil)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	b, err := q.Submit("b", nil)
	if err != nil {
		t.Fatal(err)
	}
	jobs = append(jobs, b)
	q.Start() // start after enqueueing so the ring order is fixed
	for range jobs {
		step <- struct{}{}
	}
	for _, j := range jobs {
		<-j.Done()
	}
	q.Drain(context.Background())
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 9 {
		t.Fatalf("ran %d jobs", len(order))
	}
	if order[0] != "a" || order[1] != "b" {
		t.Fatalf("order = %v: tenant b starved behind tenant a's backlog", order)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	release := make(chan struct{})
	q := New(Config{Workers: 1}, sleepRunner(release))
	q.Start()
	running, _ := q.Submit("t", nil)
	waitState(t, running, Running)
	queued, _ := q.Submit("t", nil)
	if err := q.Cancel(queued.ID()); err != nil {
		t.Fatal(err)
	}
	<-queued.Done()
	if queued.State() != Cancelled {
		t.Fatalf("state = %v", queued.State())
	}
	if err := q.Cancel(queued.ID()); !errors.Is(err, ErrTerminal) {
		t.Fatalf("re-cancel: %v, want ErrTerminal", err)
	}
	close(release)
	<-running.Done()
	q.Drain(context.Background())
}

func TestCancelRunningJobCancelsContext(t *testing.T) {
	entered := make(chan struct{})
	q := New(Config{Workers: 1}, func(ctx context.Context, j *Job) ([]byte, error) {
		close(entered)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	q.Start()
	j, _ := q.Submit("t", nil)
	<-entered
	if err := q.Cancel(j.ID()); err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	if j.State() != Cancelled {
		t.Fatalf("state = %v", j.State())
	}
	q.Drain(context.Background())
}

func TestCancelUnknownJob(t *testing.T) {
	q := New(Config{Workers: 1}, sleepRunner(nil))
	if err := q.Cancel("j999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestSubmitCompletedFastPath(t *testing.T) {
	q := New(Config{Workers: 1}, func(ctx context.Context, j *Job) ([]byte, error) {
		t.Error("runner executed for a cache-hit job")
		return nil, nil
	})
	q.Start()
	defer q.Drain(context.Background())
	j, err := q.SubmitCompleted("t", nil, []byte("cached"))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-j.Done():
	default:
		t.Fatal("cache-hit job not immediately done")
	}
	if !j.Cached() || j.State() != Done {
		t.Fatalf("cached = %v, state = %v", j.Cached(), j.State())
	}
	res, _ := j.Result()
	if string(res) != "cached" {
		t.Fatalf("result = %q", res)
	}
	if c := q.Counters(); c.CacheHits != 1 || c.Completed != 1 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestDrainCancelsQueuedLetsRunningFinish(t *testing.T) {
	release := make(chan struct{})
	q := New(Config{Workers: 1}, sleepRunner(release))
	q.Start()
	running, _ := q.Submit("t", nil)
	waitState(t, running, Running)
	queued, _ := q.Submit("t", nil)

	drained := make(chan error, 1)
	go func() { drained <- q.Drain(context.Background()) }()
	<-queued.Done()
	if queued.State() != Cancelled {
		t.Fatalf("queued job state = %v, want Cancelled", queued.State())
	}
	if _, err := q.Submit("t", nil); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit while draining: %v", err)
	}
	close(release) // running job finishes normally
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if running.State() != Done {
		t.Fatalf("running job state = %v, want Done", running.State())
	}
}

func TestDrainDeadlineForcesCancel(t *testing.T) {
	q := New(Config{Workers: 1}, sleepRunner(nil)) // only unblocks via ctx
	q.Start()
	j, _ := q.Submit("t", nil)
	waitState(t, j, Running)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := q.Drain(ctx); err == nil {
		t.Fatal("forced drain reported success")
	}
	if j.State() != Cancelled {
		t.Fatalf("state = %v, want Cancelled", j.State())
	}
}

func TestProgressPubSub(t *testing.T) {
	start := make(chan struct{})
	q := New(Config{Workers: 1}, func(ctx context.Context, j *Job) ([]byte, error) {
		<-start
		for i := 0; i < 5; i++ {
			j.Publish(i)
		}
		return nil, nil
	})
	q.Start()
	defer q.Drain(context.Background())
	j, _ := q.Submit("t", nil)
	ch, cancel := j.Subscribe()
	defer cancel()
	close(start)
	<-j.Done()
	got := 0
	for {
		select {
		case <-ch:
			got++
			continue
		default:
		}
		break
	}
	if got != 5 {
		t.Fatalf("received %d progress events, want 5", got)
	}
	if j.Snapshot().Progress != 5 {
		t.Fatalf("snapshot progress = %d", j.Snapshot().Progress)
	}
}

func TestTerminalEviction(t *testing.T) {
	q := New(Config{Workers: 2, MaxTerminal: 4}, func(ctx context.Context, j *Job) ([]byte, error) {
		return nil, nil
	})
	q.Start()
	defer q.Drain(context.Background())
	var last *Job
	for i := 0; i < 10; i++ {
		j, err := q.Submit("t", nil)
		if err != nil {
			t.Fatal(err)
		}
		<-j.Done()
		last = j
	}
	if _, ok := q.Get("j1"); ok {
		t.Fatal("oldest terminal job survived past MaxTerminal")
	}
	if _, ok := q.Get(last.ID()); !ok {
		t.Fatal("newest terminal job evicted")
	}
	if n := len(q.Jobs("")); n != 4 {
		t.Fatalf("jobs retained = %d, want 4", n)
	}
}

// TestTerminalJobDropsPayload pins that the ledger of finished jobs
// holds no inputs: a job's payload is readable while it is queued or
// running and nil once it is done, cancelled or born done as a cache
// hit, while its result stays readable.
func TestTerminalJobDropsPayload(t *testing.T) {
	type input struct{ trace []float64 }
	release := make(chan struct{})
	seen := make(chan any, 1)
	q := New(Config{Workers: 1}, func(ctx context.Context, j *Job) ([]byte, error) {
		seen <- j.Payload()
		<-release
		return []byte(j.ID()), nil
	})
	q.Start()
	defer q.Drain(context.Background())
	running, _ := q.Submit("t", &input{trace: make([]float64, 1440)})
	if p, _ := (<-seen).(*input); p == nil || len(p.trace) != 1440 {
		t.Fatal("running job does not see its submitted payload")
	}
	queued, _ := q.Submit("t", &input{})
	if queued.Payload() == nil {
		t.Fatal("queued job's payload dropped before it ran")
	}
	if err := q.Cancel(queued.ID()); err != nil {
		t.Fatal(err)
	}
	close(release)
	<-running.Done()
	<-queued.Done()
	hit, err := q.SubmitCompleted("t", &input{}, []byte("cached"))
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range []*Job{running, queued, hit} {
		if j.Payload() != nil {
			t.Fatalf("%s (%v) kept its payload", j.ID(), j.State())
		}
	}
	if res, _ := running.Result(); string(res) != running.ID() {
		t.Fatalf("done job's result = %q, want %q", res, running.ID())
	}
}

// TestConcurrentSubmitCancelComplete is the race-detector workout: 16
// goroutines submit, a chaser cancels every other job by ID, workers
// complete the rest, all interleaved.
func TestConcurrentSubmitCancelComplete(t *testing.T) {
	var executed atomic.Uint64
	q := New(Config{Workers: 4, MaxQueued: 100000}, func(ctx context.Context, j *Job) ([]byte, error) {
		executed.Add(1)
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		default:
		}
		return []byte("ok"), nil
	})
	q.Start()
	const goroutines, perG = 16, 50
	var wg sync.WaitGroup
	jobCh := make(chan *Job, goroutines*perG)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				j, err := q.Submit(fmt.Sprintf("tenant-%d", g%4), i)
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				jobCh <- j
			}
		}(g)
	}
	var cwg sync.WaitGroup
	cwg.Add(1)
	go func() {
		defer cwg.Done()
		i := 0
		for j := range jobCh {
			if i%2 == 0 {
				q.Cancel(j.ID()) // any outcome is legal; must not race
			}
			<-j.Done()
			if s := j.State(); s != Done && s != Cancelled {
				t.Errorf("job %s settled as %v", j.ID(), s)
			}
			i++
		}
	}()
	wg.Wait()
	close(jobCh)
	cwg.Wait()
	if err := q.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	c := q.Counters()
	if c.Submitted != goroutines*perG {
		t.Fatalf("submitted = %d", c.Submitted)
	}
	if c.Completed+c.Cancelled != c.Submitted {
		t.Fatalf("completed %d + cancelled %d != submitted %d", c.Completed, c.Cancelled, c.Submitted)
	}
	queued, running := q.Depth()
	if queued != 0 || running != 0 {
		t.Fatalf("depth after drain = %d/%d", queued, running)
	}
}

func waitState(t *testing.T, j *Job, want State) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if j.State() == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never reached %v (state %v)", j.ID(), want, j.State())
}
