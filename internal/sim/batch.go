package sim

import (
	"fmt"
	"math/bits"
)

// Batch is a set of handle-free callbacks that a producer adds one by
// one and commits once: a periodic sweep that sends one message per
// host, say. A committed batch takes one slot in the engine's queue,
// keyed by its earliest pending message, instead of one entry per
// message, so a message costs neither a heap push nor a full-depth pop.
//
// Each add takes the engine's next sequence number, exactly as
// AfterFunc would at that point, and the slot hands its messages out in
// (at, seq) order. The queue pops in (at, seq) order too, so the
// engine fires exactly the callbacks the same AfterFunc calls would
// have fired, in the same order, and Now, Fired, Pending and
// NextEventTime read the same around every one of them.
//
// A batch must be committed before the engine fires its next event.
// After Commit the batch belongs to the engine, which recycles it once
// its last message has fired; the producer must not touch it again.
type Batch struct {
	eng  *Engine
	msgs []message // in add order until Commit, then in (at, seq) order
	head int       // the next message to fire
	// slot is the handle of the batch's queue entry. Its batch field
	// points back here, which is how the engine tells the slot from a
	// plain event; the handle never leaves the engine.
	slot Event
}

// message is one callback of a batch with the key it would have had as
// an event of its own.
type message struct {
	at  Time
	seq uint64
	fn  func()
}

// NewBatch returns an empty batch. Batches come from a per-engine free
// list, so a warm producer allocates nothing.
func (e *Engine) NewBatch() *Batch {
	if n := len(e.freeBatches); n > 0 {
		b := e.freeBatches[n-1]
		e.freeBatches = e.freeBatches[:n-1]
		return b
	}
	b := &Batch{eng: e}
	b.slot = Event{index: -1, batch: b}
	return b
}

// AfterFunc adds fn, to run d after the current time, like
// Engine.AfterFunc.
func (b *Batch) AfterFunc(d Time, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e := b.eng
	b.msgs = append(b.msgs, message{at: e.clock.Now() + d, seq: e.seq, fn: fn})
	e.seq++
}

// Commit orders the batch by (at, seq) and queues it as one slot keyed
// by its earliest message. An empty batch goes straight back to the
// free list.
func (b *Batch) Commit() {
	e := b.eng
	n := len(b.msgs)
	if n == 0 {
		e.freeBatches = append(e.freeBatches, b)
		return
	}
	e.order(b.msgs)
	h := &b.msgs[0]
	if h.at < e.clock.Now() {
		panic(fmt.Sprintf("sim: batch committed after its first message: at=%v now=%v", h.at, e.clock.Now()))
	}
	b.head = 0
	e.batched += n - 1
	e.queue.push(entry{at: h.at, seq: h.seq, ev: &b.slot})
}

// popMessage takes the head message of b, whose slot is at the root of
// the queue. It re-keys the slot with the next message by one
// sift-down from the root or, when that was the last message, removes
// the slot and recycles b.
func (e *Engine) popMessage(b *Batch) (Time, func()) {
	m := b.msgs[b.head]
	b.head++
	if b.head < len(b.msgs) {
		next := &b.msgs[b.head]
		e.batched--
		e.queue.down(0, entry{at: next.at, seq: next.seq, ev: &b.slot})
	} else {
		e.queue.pop()
		clear(b.msgs)
		b.msgs = b.msgs[:0]
		e.freeBatches = append(e.freeBatches, b)
	}
	return m.at, m.fn
}

// order sorts ms by (at, seq). Messages are added in seq order, so a
// stable sort by at is enough. A counting pass distributes them, in add
// order, into about len(ms) buckets of equal width over their at range,
// and an insertion pass finishes each bucket. A sweep's delays spread
// over its jitter window, so a bucket holds a message or two and the
// whole pass is linear; with equal delays every message lands in one
// bucket already in order.
func (e *Engine) order(ms []message) {
	n := len(ms)
	lo, hi := ms[0].at, ms[0].at
	for i := 1; i < n; i++ {
		lo, hi = min(lo, ms[i].at), max(hi, ms[i].at)
	}
	// A power-of-two width of at least span/n: bucket k holds the
	// messages with (at-lo)>>shift == k, so k < n.
	shift := uint(bits.Len64(uint64(hi-lo) / uint64(n)))
	if cap(e.counts) < n+1 {
		e.counts = make([]int32, n+1)
		e.sortBuf = make([]message, n)
	}
	counts, buf := e.counts[:n+1], e.sortBuf[:n]
	clear(counts)
	for i := range ms {
		counts[uint64(ms[i].at-lo)>>shift+1]++
	}
	for k := 1; k <= n; k++ {
		counts[k] += counts[k-1]
	}
	for i := range ms {
		k := uint64(ms[i].at-lo) >> shift
		buf[counts[k]] = ms[i]
		counts[k]++
	}
	// Every message of a bucket runs later than every message of the
	// buckets before it, so this pass moves messages only within their
	// bucket; the strict comparison keeps equal times in seq order.
	for i := 1; i < n; i++ {
		x := buf[i]
		j := i
		for ; j > 0 && x.at < buf[j-1].at; j-- {
			buf[j] = buf[j-1]
		}
		buf[j] = x
	}
	copy(ms, buf)
	clear(buf) // drop the callbacks so the collector can have them
}
