package parallel

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapOrderPreserved(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		out, err := Map(context.Background(), 100, workers, func(_ context.Context, i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(out) != 100 {
			t.Fatalf("workers=%d: got %d results", workers, len(out))
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	out, err := Map(context.Background(), 0, 4, func(_ context.Context, i int) (int, error) {
		t.Fatal("fn called for n=0")
		return 0, nil
	})
	if err != nil || out != nil {
		t.Fatalf("got (%v, %v), want (nil, nil)", out, err)
	}
}

func TestMapBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int64
	_, err := Map(context.Background(), 50, workers, func(_ context.Context, i int) (int, error) {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent calls, limit %d", p, workers)
	}
}

func TestMapFirstErrorDeterministic(t *testing.T) {
	// Indices 30 and 60 fail; every worker count must surface index 30,
	// the error a sequential loop would hit first.
	fail := map[int]bool{30: true, 60: true}
	for _, workers := range []int{1, 2, 8} {
		_, err := Map(context.Background(), 100, workers, func(_ context.Context, i int) (int, error) {
			if fail[i] {
				return 0, fmt.Errorf("boom at %d", i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "boom at 30" {
			t.Fatalf("workers=%d: err = %v, want boom at 30", workers, err)
		}
	}
}

func TestMapErrorStopsHandout(t *testing.T) {
	// Index 0 fails only once the other worker holds a task, and every
	// task i > 0 waits for Map to cancel the context before it returns
	// success. So neither worker can race through the remaining indices
	// while the failing one is descheduled, a Map that never cancels
	// leaves a task waiting out the timeout, which fails the test, and
	// a Map that keeps handing out indices after the failure runs them
	// all. A correct Map runs one task per worker.
	const workers = 2
	var (
		ran     atomic.Int64
		once    sync.Once
		started = make(chan struct{})
	)
	_, err := Map(context.Background(), 1000, workers, func(ctx context.Context, i int) (int, error) {
		ran.Add(1)
		if i == 0 {
			select {
			case <-started:
			case <-time.After(10 * time.Second):
				t.Error("no second task started within 10 s")
			}
			return 0, errors.New("early failure")
		}
		once.Do(func() { close(started) })
		select {
		case <-ctx.Done():
		case <-time.After(10 * time.Second):
			t.Errorf("task %d: context not cancelled 10 s after index 0 failed", i)
		}
		return 0, nil
	})
	if err == nil || err.Error() != "early failure" {
		t.Fatalf("err = %v, want the early failure of index 0", err)
	}
	if n := ran.Load(); n > workers {
		t.Fatalf("%d tasks ran despite the early error, want at most %d (one per worker)", n, workers)
	}
}

func TestMapContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Map(ctx, 10, 4, func(ctx context.Context, i int) (int, error) {
		return i, ctx.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestMapNilContext(t *testing.T) {
	out, err := Map(nil, 3, 2, func(ctx context.Context, i int) (int, error) {
		if ctx == nil {
			return 0, errors.New("nil ctx passed to fn")
		}
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("got %d results", len(out))
	}
}

func TestRun(t *testing.T) {
	var mu sync.Mutex
	seen := make(map[int]bool)
	err := Run(context.Background(), 20, 4, func(_ context.Context, i int) error {
		mu.Lock()
		seen[i] = true
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 20 {
		t.Fatalf("ran %d of 20 tasks", len(seen))
	}
}

func TestDefaultWorkersPositive(t *testing.T) {
	if DefaultWorkers() < 1 {
		t.Fatalf("DefaultWorkers() = %d", DefaultWorkers())
	}
}
