package sim

// Event is the handle of a callback queued through Schedule or After.
// The callback runs with the engine's clock set to the event's time.
type Event struct {
	at Time
	// index is the position in the engine's queue, -1 when not queued;
	// an int32 keeps the handle at 32 bytes.
	index  int32
	cancel bool
	eng    *Engine // owning engine, for eager dequeue on Cancel
	batch  *Batch  // set only on a committed batch's slot handle
}

// At returns the virtual time the event is scheduled for.
func (e *Event) At() Time { return e.at }

// Cancel removes the event from its engine's queue so the callback
// will not run. The removal is eager (O(log n)): cancel-heavy
// schedules — a manager re-planning wake timers every control period,
// say — neither pile dead events into the heap nor distort Pending.
// Cancelling an already-fired or already-cancelled event is a no-op.
func (e *Event) Cancel() {
	if e.cancel {
		return
	}
	e.cancel = true
	if e.eng != nil && e.index >= 0 {
		e.eng.queue.remove(int(e.index))
	}
}

// Cancelled reports whether the event was cancelled.
func (e *Event) Cancelled() bool { return e.cancel }

// entry is one queued callback. The ordering key and the callback sit
// inline, so the heap compares and moves entries without touching any
// other memory. ev is the handle Schedule/After returned, or nil for
// ScheduleFunc/AfterFunc; only entries with a handle have their queue
// position written back, which is what lets Cancel find them. A
// committed batch's slot has no callback: its key is the batch's head
// message and ev is the batch's own handle.
type entry struct {
	at  Time
	seq uint64 // tie-breaker: FIFO among same-time events
	fn  func()
	ev  *Event
}

// before reports whether a runs ahead of b. Sequence numbers are
// unique, so (at, seq) is a strict total order and any correct heap
// pops the same sequence.
func (a *entry) before(b *entry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// eventQueue is a 4-ary min-heap of entries ordered by (at, seq). Four
// children per node halve the depth of a binary heap, and a node's
// children are adjacent, so a sift-down reads one contiguous 128-byte
// block per level.
type eventQueue []entry

// push adds x to the queue.
func (q *eventQueue) push(x entry) {
	*q = append(*q, x)
	q.up(len(*q)-1, x)
}

// pop removes the earliest entry. The queue must not be empty.
func (q *eventQueue) pop() {
	h := *q
	ev := h[0].ev
	n := len(h) - 1
	last := h[n]
	h[n] = entry{} // drop the callback so the collector can have it
	*q = h[:n]
	if n > 0 {
		q.down(0, last)
	}
	if ev != nil {
		ev.index = -1
	}
}

// remove deletes the entry at position i, which must hold a handle.
func (q *eventQueue) remove(i int) {
	h := *q
	ev := h[i].ev
	n := len(h) - 1
	last := h[n]
	h[n] = entry{}
	*q = h[:n]
	if i < n {
		if i > 0 && last.before(&h[(i-1)/4]) {
			q.up(i, last)
		} else {
			q.down(i, last)
		}
	}
	ev.index = -1
}

// up places x at position i or above: a hole moves up from i while x
// runs ahead of the hole's parent.
func (q eventQueue) up(i int, x entry) {
	for i > 0 {
		p := (i - 1) / 4
		if !x.before(&q[p]) {
			break
		}
		q.set(i, q[p])
		i = p
	}
	q.set(i, x)
}

// down places x at position i or below: a hole moves down from i while
// its earliest child runs ahead of x.
func (q eventQueue) down(i int, x entry) {
	n := len(q)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		end := min(c+4, n)
		for j := c + 1; j < end; j++ {
			if q[j].before(&q[m]) {
				m = j
			}
		}
		if !q[m].before(&x) {
			break
		}
		q.set(i, q[m])
		i = m
	}
	q.set(i, x)
}

// set stores x at position i and, if x has a handle, records where.
func (q eventQueue) set(i int, x entry) {
	q[i] = x
	if x.ev != nil {
		x.ev.index = int32(i)
	}
}
