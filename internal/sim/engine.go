package sim

import "fmt"

// Engine is the discrete-event simulation core. It owns the clock, the
// event queue, and a deterministic RNG. Engines are not safe for
// concurrent use; a simulation is a single logical thread of control.
type Engine struct {
	clock Clock
	queue eventQueue
	rng   *RNG
	seq   uint64

	fired   uint64
	stopped bool

	// Batches: the free list, the number of queued batch messages that
	// the queue's length does not count (all but the head of each
	// committed batch), and the ordering pass's scratch.
	freeBatches []*Batch
	batched     int
	sortBuf     []message
	counts      []int32
}

// NewEngine returns an engine with the clock at zero and a deterministic
// RNG derived from seed.
func NewEngine(seed uint64) *Engine {
	return &Engine{rng: NewRNG(seed)}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.clock.Now() }

// RNG returns the engine's deterministic random number generator.
func (e *Engine) RNG() *RNG { return e.rng }

// Pending returns the number of live events currently queued, every
// message of a committed batch included. Cancelled events are removed
// from the queue eagerly, so they never count here.
func (e *Engine) Pending() int { return len(e.queue) + e.batched }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Schedule queues fn to run at absolute virtual time at and returns a
// handle that can cancel it. Scheduling in the past panics: it
// indicates a logic error in the caller.
func (e *Engine) Schedule(at Time, fn func()) *Event {
	ev := &Event{at: at, index: -1, eng: e}
	e.push(at, fn, ev)
	return ev
}

// After queues fn to run d after the current time.
func (e *Engine) After(d Time, fn func()) *Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.Schedule(e.clock.Now()+d, fn)
}

// ScheduleFunc queues fn to run at absolute virtual time at, without
// handing out a handle. The callback sits in the queue entry itself,
// so no event object exists at all: hot periodic schedules should
// prefer this over Schedule to keep the event loop allocation-free.
func (e *Engine) ScheduleFunc(at Time, fn func()) {
	e.push(at, fn, nil)
}

// AfterFunc queues fn to run d after the current time, without a
// handle, like ScheduleFunc.
func (e *Engine) AfterFunc(d Time, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.ScheduleFunc(e.clock.Now()+d, fn)
}

// push queues fn at time at, stamped with the next sequence number.
func (e *Engine) push(at Time, fn func(), ev *Event) {
	if at < e.clock.Now() {
		panic(fmt.Sprintf("sim: scheduling event in the past: at=%v now=%v", at, e.clock.Now()))
	}
	e.queue.push(entry{at: at, seq: e.seq, fn: fn, ev: ev})
	e.seq++
}

// Stop halts Run/RunUntil after the currently executing event returns.
func (e *Engine) Stop() { e.stopped = true }

// step pops and executes the next event: the earliest entry, or the
// head message of the batch whose slot is earliest. It reports false
// when the queue is empty. Cancel dequeues eagerly, so every queued
// entry is live.
func (e *Engine) step() bool {
	if len(e.queue) == 0 {
		return false
	}
	x := e.queue[0]
	if x.ev != nil && x.ev.batch != nil {
		x.at, x.fn = e.popMessage(x.ev.batch)
	} else {
		e.queue.pop()
	}
	e.clock.advance(x.at)
	e.fired++
	x.fn()
	return true
}

// Run executes events until the queue drains or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.step() {
	}
}

// RunUntil executes events with time ≤ deadline, then advances the
// clock to the deadline. Events scheduled beyond the deadline remain
// queued so the simulation can be resumed.
func (e *Engine) RunUntil(deadline Time) {
	e.stopped = false
	for !e.stopped && len(e.queue) > 0 && e.queue[0].at <= deadline {
		e.step()
	}
	if !e.stopped && deadline > e.clock.Now() {
		e.clock.advance(deadline)
	}
}

// NextEventTime returns the time of the earliest queued event, or
// Infinity when the queue is empty.
func (e *Engine) NextEventTime() Time {
	if len(e.queue) == 0 {
		return Infinity
	}
	return e.queue[0].at
}
