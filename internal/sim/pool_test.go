package sim

import (
	"testing"
	"time"
)

// TestScheduleFuncPoolReuse verifies that the non-returning API
// schedules without allocating: ScheduleFunc/AfterFunc keep the
// callback inline in the queue entry and create no event object, so a
// self-rescheduling tick — the shape of every periodic loop in the
// simulator — costs nothing per firing once the queue has grown.
func TestScheduleFuncPoolReuse(t *testing.T) {
	eng := NewEngine(1)
	fired := 0
	var tick func()
	tick = func() {
		fired++
		if fired < 1000 {
			eng.AfterFunc(Time(time.Second), tick)
		}
	}
	eng.AfterFunc(0, tick)
	// Warm up: the first firing grows the queue to its working size.
	eng.RunUntil(Time(time.Second))
	avg := testing.AllocsPerRun(100, func() {
		eng.RunUntil(eng.Now() + Time(time.Second))
	})
	if avg != 0 {
		t.Fatalf("self-rescheduling AfterFunc tick allocates %.2f per firing, want 0", avg)
	}
	if fired == 0 {
		t.Fatal("tick never fired")
	}
}

// TestScheduleFuncInterleavedWithRetained checks that handle-free
// entries never disturb a handle from Schedule/After: as they are
// pushed, popped and moved around it, the handle's recorded queue
// position must stay right, so it stays cancellable (and reports
// Cancelled).
func TestScheduleFuncInterleavedWithRetained(t *testing.T) {
	eng := NewEngine(1)
	ran := false
	retained := eng.After(Time(10*time.Second), func() { ran = true })
	for i := 0; i < 100; i++ {
		eng.AfterFunc(Time(time.Second), func() {})
	}
	eng.RunUntil(Time(5 * time.Second))
	retained.Cancel()
	eng.RunUntil(Time(20 * time.Second))
	if ran {
		t.Fatal("cancelled retained event ran after handle-free events fired")
	}
	if !retained.Cancelled() {
		t.Fatal("retained handle lost its cancelled mark")
	}
}

// TestEngineBatchAllocFree holds a batch to zero allocations once warm:
// a sweep adds 128 messages with delays spread over 25 ms, commits them
// and the engine drains them. The batch comes back from the engine's
// free list with its buffer grown, and the ordering pass reuses the
// engine's scratch.
func TestEngineBatchAllocFree(t *testing.T) {
	eng := NewEngine(1)
	rng := eng.RNG()
	fired := 0
	deliver := func() { fired++ }
	sweep := func() {
		b := eng.NewBatch()
		for i := 0; i < 128; i++ {
			b.AfterFunc(50*time.Millisecond+rng.DurationJitter(25*time.Millisecond), deliver)
		}
		b.Commit()
		eng.RunUntil(eng.Now() + Time(time.Second))
	}
	sweep() // warm up
	const runs = 100
	if avg := testing.AllocsPerRun(runs, sweep); avg != 0 {
		t.Fatalf("adding, committing and draining 128 batched messages allocates %.2f times, want 0", avg)
	}
	// AllocsPerRun adds one warm-up run to the measured ones.
	if want := (runs + 2) * 128; fired != want || eng.Pending() != 0 {
		t.Fatalf("fired %d messages with %d pending, want %d with 0", fired, eng.Pending(), want)
	}
}
