package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// The engine's queue is checked against refEngine, a deliberately
// naive model: a slice kept sorted by (at, seq) with a linear insert
// and a linear remove. Both are driven through the same random program
// — an interpreter over a byte string, so the fuzzer can mutate it —
// and every observable (firing order, Now, Pending, NextEventTime,
// Fired, a handle's At and Cancelled) is logged after every program
// step and every firing. The logs must be equal. A batch of k
// callbacks is one Batch on the engine and k plain AfterFunc calls on
// the reference.

// handle is what Schedule/After hand out, on either side.
type handle interface {
	At() Time
	Cancel()
	Cancelled() bool
}

// model is the engine API a program drives.
type model interface {
	Now() Time
	Pending() int
	NextEventTime() Time
	Fired() uint64
	Stop()
	Run()
	RunUntil(Time)
	Schedule(Time, func()) handle
	After(Time, func()) handle
	ScheduleFunc(Time, func())
	AfterFunc(Time, func())
	NewBatch() batch
}

// batch is the Batch API a program drives.
type batch interface {
	AfterFunc(Time, func())
	Commit()
}

// engineModel adapts *Engine, whose Schedule/After return *Event.
type engineModel struct{ *Engine }

func (m engineModel) Schedule(at Time, fn func()) handle { return m.Engine.Schedule(at, fn) }
func (m engineModel) After(d Time, fn func()) handle     { return m.Engine.After(d, fn) }
func (m engineModel) NewBatch() batch                    { return m.Engine.NewBatch() }

type refEvent struct {
	at        Time
	seq       uint64
	fn        func()
	cancelled bool
	eng       *refEngine
}

func (e *refEvent) At() Time        { return e.at }
func (e *refEvent) Cancelled() bool { return e.cancelled }

func (e *refEvent) Cancel() {
	if e.cancelled {
		return
	}
	e.cancelled = true
	for i, q := range e.eng.q {
		if q == e {
			e.eng.q = append(e.eng.q[:i], e.eng.q[i+1:]...)
			return
		}
	}
}

// refEngine is the oracle: a sorted slice, popped from the front.
type refEngine struct {
	now     Time
	seq     uint64
	q       []*refEvent
	fired   uint64
	stopped bool
}

func (r *refEngine) Now() Time     { return r.now }
func (r *refEngine) Pending() int  { return len(r.q) }
func (r *refEngine) Fired() uint64 { return r.fired }
func (r *refEngine) Stop()         { r.stopped = true }

func (r *refEngine) NextEventTime() Time {
	if len(r.q) == 0 {
		return Infinity
	}
	return r.q[0].at
}

func (r *refEngine) Schedule(at Time, fn func()) handle {
	if at < r.now {
		panic("reference: scheduling in the past")
	}
	ev := &refEvent{at: at, seq: r.seq, fn: fn, eng: r}
	r.seq++
	i := sort.Search(len(r.q), func(i int) bool {
		q := r.q[i]
		return q.at > at || (q.at == at && q.seq > ev.seq)
	})
	r.q = append(r.q, nil)
	copy(r.q[i+1:], r.q[i:])
	r.q[i] = ev
	return ev
}

func (r *refEngine) After(d Time, fn func()) handle  { return r.Schedule(r.now+d, fn) }
func (r *refEngine) ScheduleFunc(at Time, fn func()) { r.Schedule(at, fn) }
func (r *refEngine) AfterFunc(d Time, fn func())     { r.Schedule(r.now+d, fn) }
func (r *refEngine) NewBatch() batch                 { return refBatch{r} }

// refBatch schedules every add at once, as a plain AfterFunc call.
type refBatch struct{ r *refEngine }

func (b refBatch) AfterFunc(d Time, fn func()) { b.r.AfterFunc(d, fn) }
func (b refBatch) Commit()                     {}

func (r *refEngine) fireHead() {
	ev := r.q[0]
	r.q = r.q[1:]
	r.now = ev.at
	r.fired++
	ev.fn()
}

func (r *refEngine) Run() {
	r.stopped = false
	for !r.stopped && len(r.q) > 0 {
		r.fireHead()
	}
}

func (r *refEngine) RunUntil(deadline Time) {
	r.stopped = false
	for !r.stopped && len(r.q) > 0 && r.q[0].at <= deadline {
		r.fireHead()
	}
	if !r.stopped && deadline > r.now {
		r.now = deadline
	}
}

// obs is one logged observation.
type obs struct {
	what    string // "step", "fire", "cancel"
	id      int    // program step, firing callback, or cancelled handle
	now     Time
	pending int
	next    Time
	fired   uint64
	at      Time // the cancelled handle's At
	cancel  bool // the cancelled handle's Cancelled
}

// interp runs a program against one model and logs what it sees.
type interp struct {
	m       model
	handles []handle
	ids     int
	log     []obs
}

func (in *interp) observe(what string, id int) {
	in.log = append(in.log, obs{what: what, id: id, now: in.m.Now(), pending: in.m.Pending(),
		next: in.m.NextEventTime(), fired: in.m.Fired()})
}

// maxEvents caps how many callbacks one program queues, so a short
// input of bursts cannot make the reference's linear inserts run for
// seconds.
const maxEvents = 1 << 13

// add queues a callback through one of the four scheduling calls. A
// callback queued by the program (depth 0) performs action when it
// fires; one queued from inside a callback (depth 1) only logs. Past
// maxEvents, add queues nothing.
func (in *interp) add(kind int, d Time, action byte, depth int) {
	if in.ids >= maxEvents {
		return
	}
	id := in.ids
	in.ids++
	fn := func() { in.fire(id, action, depth, 5) }
	switch kind {
	case 0:
		in.handles = append(in.handles, in.m.Schedule(in.m.Now()+d, fn))
	case 1:
		in.handles = append(in.handles, in.m.After(d, fn))
	case 2:
		in.m.ScheduleFunc(in.m.Now()+d, fn)
	default:
		in.m.AfterFunc(d, fn)
	}
}

// cancel cancels a handle, which may be queued, fired or already
// cancelled.
func (in *interp) cancel(k int) {
	if len(in.handles) == 0 {
		return
	}
	h := in.handles[k%len(in.handles)]
	h.Cancel()
	in.observe("cancel", k%len(in.handles))
	last := &in.log[len(in.log)-1]
	last.at, last.cancel = h.At(), h.Cancelled()
}

// batch commits a batch of k callbacks. Their delays are whole seconds
// in [0, spread) from a linear congruential stream seeded by x, so ties
// inside the batch and with plain events are common, and k = 0 commits
// an empty batch. Callback j of a batch the program commits (depth 0)
// performs action+j when it fires; one committed from inside a callback
// (depth 1) only logs.
func (in *interp) batch(k int, spread, x uint32, action byte, depth int) {
	b := in.m.NewBatch()
	for j := 0; j < k && in.ids < maxEvents; j++ {
		x = x*1664525 + 1013904223
		id, a := in.ids, action+byte(j)
		in.ids++
		b.AfterFunc(Time(x>>8%spread)*time.Second, func() { in.fire(id, a, depth, 6) })
	}
	b.Commit()
}

// fire logs callback id and, at depth 0, performs action as act's kind
// action%kinds. Plain callbacks pass 5; a batch's callbacks pass 6,
// whose sixth kind commits a batch of up to 7 callbacks 0-2 s ahead.
func (in *interp) fire(id int, action byte, depth int, kinds byte) {
	in.observe("fire", id)
	if depth == 0 {
		in.act(action, action%kinds)
	}
}

func (in *interp) act(action, kind byte) {
	switch kind {
	case 1: // schedule a child 0-2 s ahead: 0 is the current instant
		in.add(int(action>>3)%4, Time(action>>5%3)*time.Second, 0, 1)
	case 2:
		in.cancel(int(action >> 3))
	case 3:
		in.m.Stop()
	case 4: // schedule a handle at the current instant, then cancel it
		in.add(int(action>>3)%2, 0, 0, 1)
		in.cancel(len(in.handles) - 1)
	case 5:
		in.batch(int(action>>3)%8, 3, uint32(action), 0, 1)
	}
}

// exec interprets prog. Each step reads an opcode and its operands;
// reads past the end yield 0, so every byte string is a program.
func (in *interp) exec(prog []byte) {
	pos := 0
	next := func() byte {
		if pos >= len(prog) {
			return 0
		}
		pos++
		return prog[pos-1]
	}
	for step := 0; pos < len(prog); step++ {
		switch op := next(); op % 9 {
		case 0, 1, 2, 3:
			d := Time(next()%16) * time.Second
			in.add(int(op%4), d, next(), 0)
		case 4:
			in.cancel(int(next())<<8 | int(next()))
		case 5: // a deadline up to 2 s in the past
			in.m.RunUntil(in.m.Now() + Time(next()%24)*time.Second - 2*time.Second)
		case 6:
			in.m.Run()
		case 7: // a burst of n schedules from a linear congruential stream
			n, x := int(next()), uint32(next())
			for j := 0; j < n; j++ {
				x = x*1664525 + 1013904223
				in.add(int(x>>30), Time(x>>8%64)*time.Second, byte(x>>16), 0)
			}
		case 8: // a batch of up to 63 callbacks spread over up to 16 s
			k, spread := int(next()%64), uint32(next()%16)+1
			in.batch(k, spread, uint32(next()), next(), 0)
		}
		in.observe("step", step)
	}
	in.m.Run()
	in.observe("step", -1)
}

// diffReference runs prog on both sides and describes the first
// observation where they differ, or returns nil.
func diffReference(prog []byte) error {
	eng := &interp{m: engineModel{NewEngine(1)}}
	ref := &interp{m: &refEngine{}}
	eng.exec(prog)
	ref.exec(prog)
	for i := 0; i < len(eng.log) && i < len(ref.log); i++ {
		if eng.log[i] != ref.log[i] {
			return fmt.Errorf("observation %d differs:\n engine    %+v\n reference %+v", i, eng.log[i], ref.log[i])
		}
	}
	if len(eng.log) != len(ref.log) {
		return fmt.Errorf("engine logged %d observations, reference %d", len(eng.log), len(ref.log))
	}
	return nil
}

// deepHeapProgram queues 700 retained events — five full levels of a
// 4-ary heap and part of a sixth — at pseudo-random times among 16,
// then drains the heap in eight stages, cancelling 25 handles from
// anywhere in it before each stage.
func deepHeapProgram() []byte {
	x := uint32(7)
	rnd := func() byte {
		x = x*1664525 + 1013904223
		return byte(x >> 24)
	}
	var p []byte
	for i := 0; i < 700; i++ {
		p = append(p, byte(i%2), rnd()%16, rnd()%5)
	}
	for stage := 0; stage < 8; stage++ {
		for i := 0; i < 25; i++ {
			p = append(p, 4, rnd(), rnd())
		}
		p = append(p, 5, 4)
	}
	return append(p, 6)
}

// referenceCorpus is the seed corpus of FuzzEngineMatchesReference.
func referenceCorpus() [][]byte {
	return [][]byte{
		{},
		{0, 3, 0, 5, 5},                         // one event, run to it
		{0, 1, 0, 1, 1, 0, 2, 1, 0, 3, 1, 0, 6}, // same-time FIFO across the four calls
		{0, 5, 2, 0, 5, 0, 4, 0, 0, 4, 0, 0, 5, 9},          // cancel a queued handle twice
		{0, 1, 0, 0, 5, 0, 0, 6, 0, 5, 5, 4, 0, 0, 4, 0, 1}, // cancel a fired handle, then a queued one
		{0, 0, 3, 0, 4, 0, 2, 0, 0, 6, 6},                   // Stop from a callback, then resume
		{0, 2, 1, 1, 2, 41, 3, 2, 4, 2, 2, 11, 6},           // children at the current instant and 1 s on
		{7, 200, 9, 4, 0, 17, 4, 1, 99, 5, 10, 7, 50, 3, 6}, // bursts, with cancels and a deadline between
		// Ten events laid out so that cancelling the sixth (at 11 s, under
		// the 10 s event at index 1) moves the last (5 s) into a subtree
		// whose parent is later than it: the removal must sift up.
		{0, 0, 0, 0, 10, 0, 0, 1, 0, 0, 10, 0, 0, 10, 0, 0, 11, 0, 0, 11, 0, 0, 11, 0, 0, 11, 0, 0, 5, 0, 4, 0, 5, 6},
		deepHeapProgram(),
		// Batches. Zero and equal delays: a batch of six at the current
		// instant between plain events there, then twelve over 0-1 s
		// between plain events at 1 s; ties inside the batch and with
		// plain events.
		{3, 0, 0, 8, 6, 0, 1, 6, 2, 0, 0, 0, 1, 0, 8, 12, 1, 7, 12, 3, 1, 0, 6, 6, 6},
		// Two overlapping batches over 0-9 s and 0-15 s whose callbacks
		// commit batches of their own (seven from the first one's first
		// callback).
		{8, 20, 9, 33, 59, 8, 16, 15, 90, 17, 0, 4, 0, 6, 6, 6, 6},
		// Stop from batch callbacks, and deadlines that fall mid-batch.
		{8, 30, 15, 5, 3, 5, 8, 5, 3, 5, 10, 6, 6, 6, 6, 6},
		// Empty commits, from the program and from a batch callback.
		{8, 0, 3, 1, 0, 0, 2, 0, 8, 0, 0, 0, 0, 8, 1, 0, 0, 5, 6, 6},
		// Batches beside 200 plain events, with cancels and a deadline.
		{7, 200, 9, 8, 63, 15, 3, 0, 8, 63, 15, 99, 30, 4, 0, 17, 5, 10, 8, 40, 7, 1, 1, 6, 6, 6},
	}
}

func TestEngineMatchesReference(t *testing.T) {
	for i, prog := range referenceCorpus() {
		if err := diffReference(prog); err != nil {
			t.Errorf("corpus program %d: %v", i, err)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		prog := make([]byte, 1+rng.Intn(600))
		rng.Read(prog)
		if err := diffReference(prog); err != nil {
			t.Fatalf("random program %d %v: %v", i, prog, err)
		}
	}
}

func FuzzEngineMatchesReference(f *testing.F) {
	for _, prog := range referenceCorpus() {
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 4096 {
			prog = prog[:4096]
		}
		if err := diffReference(prog); err != nil {
			t.Fatal(err)
		}
	})
}
