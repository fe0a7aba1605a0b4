// The completion replan: every finished live migration immediately
// re-plans the drains in progress (continueMoves → drainEvacuating →
// planDrain), so it runs hundreds of times per simulated hour and its
// cost is the manager's own overhead. It works on reused, ID-indexed
// scratch memory: no maps, no allocations once warm, and no formatted
// errors (rejected moves come back as sentinel errors).
//
// The plan stays bit-identical to the map-based planner it replaced
// (kept in drain_oracle_test.go as the differential oracle): bins are
// charged in the same floating-point order, evacuees are processed in
// the same total order, and the packing heuristics are unchanged.
//
// Between two replans about one move starts and one finishes, so a
// first-fit replan mostly repeats the last one. The last pack is kept
// as the live plan, in processing order, and edited in place: the
// segment rows name the evacuees that changed (refreshSegments), and
// when the order still holds and the last pack placed everything,
// planDrain replays that pack (drainScratch.replay), reading the state
// of the bins that may differ from what the last pack saw and nothing
// else. The full pack runs otherwise, and stays the reference the
// replay is tested against.

package core

import (
	"cmp"
	"slices"

	"agilepower/internal/host"
	"agilepower/internal/migrate"
	"agilepower/internal/vm"
)

// hostSet is a set of host IDs backed by a dense flag slice (indexed
// host.ID-1): membership is an index, and members come out in
// ascending ID order without a sort.
type hostSet struct {
	on []bool
	n  int
}

func (s *hostSet) has(id host.ID) bool {
	i := int(id) - 1
	return i >= 0 && i < len(s.on) && s.on[i]
}

func (s *hostSet) add(id host.ID) {
	i := int(id) - 1
	if i >= len(s.on) {
		s.on = append(s.on, make([]bool, i+1-len(s.on))...)
	}
	if !s.on[i] {
		s.on[i] = true
		s.n++
	}
}

func (s *hostSet) remove(id host.ID) {
	if s.has(id) {
		s.on[id-1] = false
		s.n--
	}
}

func (s *hostSet) len() int { return s.n }

// appendTo appends the members to dst in ascending ID order.
func (s *hostSet) appendTo(dst []host.ID) []host.ID {
	for i, on := range s.on {
		if on {
			dst = append(dst, host.ID(i+1))
		}
	}
	return dst
}

// The marks a plan entry carries between refreshSegments and the walk
// that consumes them. An entry is dead once a walk or a full pack has
// dropped it; it stays in place until the plan is compacted.
const (
	entryKept    uint8 = iota // an evacuee, sizes as packed
	entryGone                 // no longer an evacuee
	entryResized              // an evacuee whose sizes or group changed
	entryDead                 // dropped; a hole in the plan
)

// planned is one evacuee of the live plan: the VM, the evacuating host
// it sits on, its sizes and group as packed, and the bin position it
// went to.
type planned struct {
	vm    int32
	src   int32
	bin   int32
	mark  uint8
	cpu   float64
	mem   float64
	group string
}

// binSnap is a bin's packing state right after an entry landed in it:
// what the bin holds, and how many of the pack's groups it carries.
type binSnap struct {
	cpu, mem float64
	groups   int32
}

// drainScratch is the completion replan's reusable memory. The plan it
// holds is valid until the next planDrain, which edits it in place.
type drainScratch struct {
	pk packer
	// items and srcs are the full pack's input: the evacuees and, by
	// the same position, their hosts.
	items []Item
	srcs  []int32
	// plan is the last pack in processing order; planOK reports that it
	// placed every evacuee, otherwise only its order is meaningful.
	// dead counts its holes. snap[j] is the state of plan[j]'s bin
	// right after plan[j] landed in it (while planOK).
	plan   []planned
	snap   []binSnap
	planOK bool
	dead   int
	// pos[vid-1] is VM vid's plan position + 1, or stale; find checks.
	pos []int32
	// sources are the evacuating hosts of the plan, in census order;
	// srcAt[id-1] is host id's census position + 1 among them, or 0.
	sources []host.ID
	prevSrc []host.ID
	srcAt   []int32
	// redo lists the hosts whose evacuees refreshSegments compares with
	// the plan; resized lists the positions it marked resized.
	redo    []*host.Host
	resized []int32
	// start holds each bin's starting state (key, capacities, groups;
	// nothing used) as the last pack saw it, by bin position; groups[b]
	// the groups the last pack added to bin b, in order.
	start  []binState
	groups [][]string
	// dirty[b] marks bin b as one whose state may differ from what the
	// last pack saw at the same point in the order; dirtyBins lists the
	// dirty bins in ascending order. Only a dirty bin's state is kept
	// up in pk.bins during a replay; lastAt[b] is the position of the
	// last entry a replay left in clean bin b, or -1.
	dirty     []bool
	dirtyBins []int32
	lastAt    []int32
	// room[b] is dirty bin b's CPU and memory room (see roomFor), and
	// prefix[i] the largest room of the first i dirty bins, each
	// resource on its own (-1 for none); bin c has under[c] dirty bins
	// below it, so an evacuee in c that needs more than prefix[under[c]]
	// of either fits none of them.
	room   []binRoom
	prefix []binRoom
	under  []int32
	// slot[b] marks bin b's host as having a free migration slot. The
	// start candidates are the evacuees planned into such bins: cand
	// flags them by segment, source after source in census order, the
	// source at census position i from segOff[i], host id's from
	// segBase[id-1]; segAt[vid-1] is VM vid's position in its source's
	// segment row.
	slot    []bool
	cand    []bool
	segOff  []int32
	segBase []int32
	segAt   []int32
	// sorts counts the full sorts run because the plan's order did not
	// hold; every other call reused it. replays counts the packs
	// replayed from the last one; every other call ran the full pack.
	sorts   int
	replays int
}

// find returns VM vid's position in the plan, or false if the VM is
// not one of the plan's evacuees.
func (d *drainScratch) find(vid vm.ID) (int, bool) {
	i := int(vid) - 1
	if i < 0 || i >= len(d.pos) {
		return 0, false
	}
	j := int(d.pos[i]) - 1
	if j < 0 || j >= len(d.plan) || d.plan[j].vm != int32(vid) || d.plan[j].mark == entryDead {
		return 0, false
	}
	return j, true
}

// dest returns the planned destination of an evacuee, or false if the
// VM is not part of the current plan.
func (d *drainScratch) dest(vid vm.ID) (host.ID, bool) {
	j, ok := d.find(vid)
	if !ok {
		return 0, false
	}
	return host.ID(d.pk.bins[d.plan[j].bin].key), true
}

// compact closes the plan's holes once they are a quarter of it.
func (d *drainScratch) compact() {
	if d.dead == 0 || 4*d.dead < len(d.plan) {
		return
	}
	snaps := d.planOK && len(d.snap) >= len(d.plan)
	w := 0
	for j := range d.plan {
		if d.plan[j].mark == entryDead {
			continue
		}
		d.plan[w] = d.plan[j]
		if snaps {
			d.snap[w] = d.snap[j]
		}
		d.pos[d.plan[w].vm-1] = int32(w) + 1
		w++
	}
	d.plan = d.plan[:w]
	d.dead = 0
}

// noteSources takes the census's evacuating hosts as the plan's
// sources and returns those that were not sources of the last plan;
// left reports whether some source of the last plan is gone.
func (d *drainScratch) noteSources(evacuating []*host.Host, nHosts int) (joined []*host.Host, left bool) {
	if len(d.srcAt) < nHosts {
		d.srcAt = append(d.srcAt, make([]int32, nHosts-len(d.srcAt))...)
	}
	joined = d.redo[:0]
	kept := 0
	for _, h := range evacuating {
		if d.srcAt[h.ID()-1] != 0 {
			kept++
		} else {
			joined = append(joined, h)
		}
	}
	for _, id := range d.sources {
		d.srcAt[id-1] = 0
	}
	d.prevSrc, d.sources = d.sources, d.prevSrc[:0]
	for i, h := range evacuating {
		d.srcAt[h.ID()-1] = int32(i) + 1
		d.sources = append(d.sources, h.ID())
	}
	return joined, kept < len(d.prevSrc)
}

// markGone marks as gone the plan entries of items that sat on host
// src when the plan was packed.
func (d *drainScratch) markGone(items []Item, src host.ID) {
	for i := range items {
		if j, ok := d.find(vm.ID(items[i].Key)); ok && d.plan[j].src == int32(src) {
			d.plan[j].mark = entryGone
		}
	}
}

// markPresent records that items, host src's evacuees, are evacuees
// now: each entry is kept, or resized when its sizes or group moved.
// It reports false at the first item the plan does not hold.
func (d *drainScratch) markPresent(items []Item, src host.ID) bool {
	for i := range items {
		it := &items[i]
		j, ok := d.find(vm.ID(it.Key))
		if !ok {
			return false
		}
		e := &d.plan[j]
		e.src = int32(src)
		if it.CPU != e.cpu || it.MemGB != e.mem || it.Group != e.group {
			e.cpu, e.mem, e.group = it.CPU, it.MemGB, it.Group
			if e.mark != entryResized {
				d.resized = append(d.resized, int32(j))
			}
			e.mark = entryResized
		} else if e.mark == entryGone {
			e.mark = entryKept
		}
	}
	return true
}

// cmpPlanned is cmpItems on plan entries.
func cmpPlanned(a, b *planned) int {
	switch {
	case a.cpu > b.cpu:
		return -1
	case a.cpu < b.cpu:
		return 1
	}
	return cmp.Compare(a.vm, b.vm)
}

// ordered reports whether the plan's evacuees, gone ones left out, are
// still strictly increasing under cmpItems — which makes the plan's
// order the one sorted order of the current evacuees. The plan was
// strictly ordered when packed and dropping entries keeps it so, so
// only the pairs a resized entry is in need a look.
func (d *drainScratch) ordered() bool {
	plan := d.plan
	for _, j := range d.resized {
		e := &plan[j]
		for i := j - 1; i >= 0; i-- {
			if m := plan[i].mark; m == entryKept || m == entryResized {
				if cmpPlanned(&plan[i], e) >= 0 {
					return false
				}
				break
			}
		}
		for i := int(j) + 1; i < len(plan); i++ {
			if m := plan[i].mark; m == entryKept || m == entryResized {
				if cmpPlanned(e, &plan[i]) >= 0 {
					return false
				}
				break
			}
		}
	}
	return true
}

// noteStart compares each bin's starting state — the packer's bins
// before any evacuee lands — with the previous replan's, marks the bins
// that differ or are new dirty, and keeps the new states for the next
// replan. It also flags the bins whose host has a free migration slot.
func (d *drainScratch) noteStart(migs *migrate.Manager) {
	bins := d.pk.bins
	n := len(bins)
	if cap(d.dirty) < n {
		d.dirty = make([]bool, n)
		d.slot = make([]bool, n)
		d.lastAt = make([]int32, n)
		d.room = make([]binRoom, n)
		d.prefix = make([]binRoom, 0, n+1)
		d.under = make([]int32, n)
		// At most every bin turns dirty, so markDirty never grows it.
		d.dirtyBins = make([]int32, 0, n)
	}
	d.dirty, d.slot, d.lastAt = d.dirty[:n], d.slot[:n], d.lastAt[:n]
	d.room, d.under = d.room[:n], d.under[:n]
	d.dirtyBins = d.dirtyBins[:0]
	had := len(d.start)
	if cap(d.start) < n {
		d.start = append(d.start[:cap(d.start)], make([]binState, n-cap(d.start))...)
	}
	if cap(d.groups) < n {
		d.groups = append(d.groups[:cap(d.groups)], make([][]string, n-cap(d.groups))...)
	}
	d.start, d.groups = d.start[:n], d.groups[:n]
	for b := range bins {
		s, st := &d.start[b], &bins[b]
		same := b < had && s.key == st.key && s.cpuCap == st.cpuCap && s.memCap == st.memCap &&
			slices.Equal(s.groups, st.groups)
		d.dirty[b] = !same
		if !same {
			d.room[b] = binRoom{roomFor(0, st.cpuCap), roomFor(0, st.memCap)}
			d.dirtyBins = append(d.dirtyBins, int32(b))
			s.key, s.cpuCap, s.memCap = st.key, st.cpuCap, st.memCap
			s.groups = append(s.groups[:0], st.groups...)
		}
		d.slot[b] = migs.HasSlot(st.key)
		d.lastAt[b] = -1
	}
	d.noteDirty()
}

// markDirty adds bin b to the dirty set, keeping dirtyBins sorted.
// Positions past the current bins (a bin the fleet no longer has) are
// ignored. A bin that turns dirty during a replay first takes up the
// state the last pack had reached in it (see replay).
func (d *drainScratch) markDirty(b int32) {
	if int(b) >= len(d.dirty) || d.dirty[b] {
		return
	}
	st := &d.pk.bins[b]
	if k := d.lastAt[b]; k >= 0 {
		s := &d.snap[k]
		st.cpuUsed, st.memUsed = s.cpu, s.mem
		st.groups = append(st.groups, d.groups[b][:s.groups]...)
	}
	d.dirty[b] = true
	i, _ := slices.BinarySearch(d.dirtyBins, b)
	d.dirtyBins = slices.Insert(d.dirtyBins, i, b)
	d.room[b] = binRoom{roomFor(st.cpuUsed, st.cpuCap), roomFor(st.memUsed, st.memCap)}
	d.noteDirty()
}

// noteRoom recomputes dirty bin b's room after its state changed, and
// the prefix maxima.
func (d *drainScratch) noteRoom(b int32) {
	st := &d.pk.bins[b]
	d.room[b] = binRoom{roomFor(st.cpuUsed, st.cpuCap), roomFor(st.memUsed, st.memCap)}
	d.notePrefix()
}

// notePrefix recomputes the prefix maxima of the dirty bins' rooms.
func (d *drainScratch) notePrefix() {
	m := binRoom{-1, -1}
	d.prefix = append(d.prefix[:0], m)
	for _, b := range d.dirtyBins {
		m = binRoom{max(m.cpu, d.room[b].cpu), max(m.mem, d.room[b].mem)}
		d.prefix = append(d.prefix, m)
	}
}

// noteDirty recounts the dirty bins below each bin, and the prefix
// maxima.
func (d *drainScratch) noteDirty() {
	k := int32(0)
	for c, dirty := range d.dirty {
		d.under[c] = k
		if dirty {
			k++
		}
	}
	d.notePrefix()
}

// fits reports whether bin b has room for entry e. A dirty bin's state
// is in pk.bins; a clean one's is the last pack's at its last entry so
// far (lastAt), or its starting state.
func (d *drainScratch) fits(b int32, e *planned) bool {
	st := &d.pk.bins[b]
	used, mem, groups := st.cpuUsed, st.memUsed, st.groups[:0]
	if !d.dirty[b] {
		if k := d.lastAt[b]; k >= 0 {
			s := &d.snap[k]
			used, mem, groups = s.cpu, s.mem, d.groups[b][:s.groups]
		}
	}
	return used+e.cpu <= st.cpuCap+1e-9 && mem+e.mem <= st.memCap+1e-9 &&
		(e.group == "" || !st.hasGroup(e.group) && !slices.Contains(groups, e.group))
}

// firstFit returns the first bin at or after position from that fits
// entry e, or -1.
func (d *drainScratch) firstFit(e *planned, from int32) int32 {
	for b := from; int(b) < len(d.pk.bins); b++ {
		if d.fits(b, e) {
			return b
		}
	}
	return -1
}

// dirtyBelow returns the first dirty bin below c that fits entry e, or
// -1. A dirty bin's room rules out most evacuees before the exact test.
func (d *drainScratch) dirtyBelow(e *planned, c int32) int32 {
	for _, b := range d.dirtyBins {
		if b >= c {
			break
		}
		if r := &d.room[b]; e.cpu <= r.cpu && e.mem <= r.mem && d.fits(b, e) {
			return b
		}
	}
	return -1
}

// binRoom bounds what a bin can still take, per resource.
type binRoom struct{ cpu, mem float64 }

// roomFor bounds the size a bin with used of capacity can still take:
// any size above it fails binState.fits' test used+x <= capacity+1e-9
// for that resource. The bound sits above the exact threshold by far
// more than the rounding of either side (values are non-negative), so
// it only rules out sizes that cannot fit; a size at or under it still
// takes the exact test.
func roomFor(used, capacity float64) float64 {
	limit := capacity + 1e-9
	return limit - used + 1e-12*(limit+used)
}

// refit finds the first fit of an unchanged evacuee that the last pack
// put in bin c. Clean bins below c still refuse it and a clean c still
// takes it, so only the dirty bins below c, and c itself when dirty,
// need a check; if c turns it down, the scan goes on past c. A c past
// the last bin (the serving set shrank) leaves nothing more to try.
func (d *drainScratch) refit(e *planned, c int32) int32 {
	if b := d.dirtyBelow(e, c); b >= 0 {
		return b
	}
	if int(c) >= len(d.pk.bins) {
		return -1
	}
	if !d.dirty[c] || d.fits(c, e) {
		return c
	}
	return d.firstFit(e, c+1)
}

// replay places the current evacuees first-fit, as pack does under
// PackFFD, from the live plan. It needs refreshSegments' marks to say
// that the plan's order holds, the last pack to have placed every
// evacuee, and noteStart's dirty set. It walks the plan once, and a bin
// turns dirty once its history departs from the last pack's:
//
//   - an evacuee that is gone leaves its bin dirty;
//   - a resized evacuee is placed by a full first-fit scan and leaves
//     its old bin and its new one dirty, even when they are the same;
//   - an unchanged evacuee that went to bin c is checked only against
//     the dirty bins below c, then against c if c is dirty; a clean c
//     takes it unchecked. Landing anywhere but c leaves both bins
//     dirty.
//
// A clean bin started from the same state and received the same items,
// with the same sizes and in the same order, as in the last pack, so
// its state — floating-point sums included — is what that pack saw at
// this point, and every fits answer the last pack implies for it still
// holds. So only dirty bins take their evacuees; a clean bin's state is
// read, when needed, from the snapshot of the last entry the walk left
// in it, and becomes its state when it turns dirty. The result is
// bit-identical to pack's. The plan is rewritten in place to the new
// pack as the walk goes, and the entries planned into bins with a free
// slot are collected as start candidates.
func (d *drainScratch) replay() bool {
	p := &d.pk
	plan := d.plan
	for j := range plan {
		e := &plan[j]
		switch e.mark {
		case entryDead:
			continue
		case entryGone:
			e.mark = entryDead
			d.dead++
			d.markDirty(e.bin)
			continue
		}
		c := e.bin
		resized := e.mark == entryResized
		if !resized && int(c) < len(d.dirty) && !d.dirty[c] {
			// The prefix maxima rule out most evacuees without a look at
			// the dirty bins; the test is e.cpu > r.cpu || e.mem > r.mem,
			// folded into one comparison so that it compiles to one
			// well-predicted branch.
			if r := &d.prefix[d.under[c]]; max(e.cpu-r.cpu, e.mem-r.mem) > 0 || d.dirtyBelow(e, c) < 0 {
				// c is clean and no dirty bin below it takes the evacuee:
				// it stays, and c's state stays the last pack's.
				d.lastAt[c] = int32(j)
				if d.slot[c] {
					d.flag(e)
				}
				continue
			}
		}
		var b int32
		if resized {
			b = d.firstFit(e, 0)
		} else {
			b = d.refit(e, c)
		}
		if b < 0 {
			d.settle(j)
			return false
		}
		if resized || b != c {
			d.markDirty(c)
			d.markDirty(b)
			e.bin, e.mark = b, entryKept
		}
		if d.dirty[b] {
			st := &p.bins[b]
			st.cpuUsed += e.cpu
			st.memUsed += e.mem
			if e.group != "" {
				st.groups = append(st.groups, e.group)
			}
			d.noteRoom(b)
			d.snap[j] = binSnap{st.cpuUsed, st.memUsed, int32(len(st.groups) - len(d.start[b].groups))}
		} else {
			d.lastAt[b] = int32(j)
		}
		if d.slot[b] {
			d.flag(e)
		}
	}
	for _, b := range d.dirtyBins {
		d.groups[b] = append(d.groups[b][:0], p.bins[b].groups[len(d.start[b].groups):]...)
	}
	return true
}

// settle ends a replay that found no bin for entry j: the plan keeps
// the current evacuees in order, with nothing placed.
func (d *drainScratch) settle(j int) {
	for ; j < len(d.plan); j++ {
		switch e := &d.plan[j]; e.mark {
		case entryGone:
			e.mark = entryDead
			d.dead++
		case entryResized:
			e.mark = entryKept
		}
	}
	d.planOK = false
}

// flag marks entry e as a start candidate.
func (d *drainScratch) flag(e *planned) {
	d.cand[d.segBase[e.src-1]+d.segAt[e.vm-1]] = true
}

// planItems loads the plan's current evacuees, in its order, as the
// full pack's items, and sets that order as the processing order.
func (d *drainScratch) planItems() {
	d.items, d.srcs, d.pk.order = d.items[:0], d.srcs[:0], d.pk.order[:0]
	for j := range d.plan {
		e := &d.plan[j]
		if e.mark == entryDead || e.mark == entryGone {
			continue
		}
		d.pk.order = append(d.pk.order, int32(len(d.items)))
		d.items = append(d.items, Item{Key: int(e.vm), CPU: e.cpu, MemGB: e.mem, Current: -1, Group: e.group})
		d.srcs = append(d.srcs, e.src)
	}
}

// record makes the pack just run over items the live plan; ok reports
// whether it placed every evacuee.
func (d *drainScratch) record(ok bool) {
	p := &d.pk
	plan := d.plan[:0]
	for _, i := range p.order {
		it := &d.items[i]
		plan = append(plan, planned{vm: int32(it.Key), src: d.srcs[i], bin: p.place[i], cpu: it.CPU, mem: it.MemGB, group: it.Group})
		d.pos[it.Key-1] = int32(len(plan))
	}
	d.plan, d.dead, d.planOK = plan, 0, ok
	if !ok {
		return
	}
	// Each entry's snapshot: the same additions, in the same order, as
	// the pack made to its bin.
	if cap(d.snap) < len(plan) {
		d.snap = make([]binSnap, len(plan), 2*len(plan))
	}
	d.snap = d.snap[:len(plan)]
	for b := range p.bins {
		d.lastAt[b] = -1
	}
	for j := range plan {
		e := &plan[j]
		s := binSnap{}
		if k := d.lastAt[e.bin]; k >= 0 {
			s = d.snap[k]
		}
		s.cpu += e.cpu
		s.mem += e.mem
		if e.group != "" {
			s.groups++
		}
		d.snap[j] = s
		d.lastAt[e.bin] = int32(j)
		if d.slot[e.bin] {
			d.flag(e)
		}
	}
	for b := range p.bins {
		d.groups[b] = append(d.groups[b][:0], p.bins[b].groups[len(d.start[b].groups):]...)
	}
}
