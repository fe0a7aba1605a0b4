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
