package sim

import (
	"testing"
	"time"
)

// BenchmarkEngineThroughput measures raw event dispatch: schedule and
// run 100k chained events, one deep, through the handle-returning
// After.
func BenchmarkEngineThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := NewEngine(1)
		n := 0
		var next func()
		next = func() {
			n++
			if n < 100_000 {
				e.After(time.Millisecond, next)
			}
		}
		e.After(0, next)
		e.Run()
	}
}

// BenchmarkEngineQueuePressure measures heap behaviour with 10k
// simultaneously queued events in random time order.
func BenchmarkEngineQueuePressure(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := NewEngine(uint64(i + 1))
		rng := e.RNG()
		for j := 0; j < 10_000; j++ {
			e.Schedule(time.Duration(rng.Intn(1_000_000))*time.Microsecond, func() {})
		}
		e.Run()
	}
}

// BenchmarkEngineDispatch measures dispatch at the queue depth a
// control-plane run sustains: 512 handle-free events stay queued, and
// each firing reschedules itself up to 1 s ahead at a pseudo-random
// offset, as the per-host heartbeats and reports do. One op is one
// event fired.
func BenchmarkEngineDispatch(b *testing.B) {
	e := NewEngine(1)
	rng := e.RNG()
	offset := func() Time { return Time(1 + rng.Uint64()%uint64(time.Second)) }
	var tick func()
	tick = func() { e.AfterFunc(offset(), tick) }
	for i := 0; i < 512; i++ {
		e.AfterFunc(offset(), tick)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.step()
	}
}

// BenchmarkEngineSweep measures dispatch shaped like the control plane
// of a 128-host run: every 10 s a sweep sends 128 messages with 50-75 ms
// delays as one batch, beside 128 long-lived timers that reschedule
// themselves hours ahead, as the fault injector's per-host crash timers
// do. One op is one message delivered.
func BenchmarkEngineSweep(b *testing.B) {
	e := NewEngine(1)
	rng := e.RNG()
	delivered := 0
	deliver := func() { delivered++ }
	var sweep, timer func()
	sweep = func() {
		bt := e.NewBatch()
		for i := 0; i < 128; i++ {
			bt.AfterFunc(50*time.Millisecond+rng.DurationJitter(25*time.Millisecond), deliver)
		}
		bt.Commit()
		e.AfterFunc(10*time.Second, sweep)
	}
	timer = func() { e.AfterFunc(time.Hour+rng.DurationJitter(23*time.Hour), timer) }
	for i := 0; i < 128; i++ {
		e.AfterFunc(rng.DurationJitter(24*time.Hour), timer)
	}
	e.AfterFunc(10*time.Second, sweep)
	for delivered < 10*128 { // warm: the free list and scratch reach their size
		e.step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for end := delivered + b.N; delivered < end; {
		e.step()
	}
}

// BenchmarkRNGUint64 measures the generator.
func BenchmarkRNGUint64(b *testing.B) {
	r := NewRNG(1)
	b.ReportAllocs()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

// BenchmarkRNGNorm measures Gaussian draws (Box–Muller).
func BenchmarkRNGNorm(b *testing.B) {
	r := NewRNG(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.Norm(0, 1)
	}
	_ = sink
}
