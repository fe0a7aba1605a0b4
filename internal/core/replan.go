// The completion replan: every finished live migration immediately
// re-plans the drains in progress (continueMoves → drainEvacuating →
// planDrain), so it runs hundreds of times per simulated hour and its
// cost is the manager's own overhead. It is a linear pass over reused,
// ID-indexed scratch memory: no maps, no allocations once warm, and no
// formatted errors (rejected moves come back as sentinel errors).
//
// The plan stays bit-identical to the map-based planner it replaced
// (kept in drain_oracle_test.go as the differential oracle): bins are
// charged in the same floating-point order, evacuees are processed in
// the same total order, and the packing heuristics are unchanged.
//
// Between two replans about one move starts and one finishes, so a
// first-fit replan mostly repeats the last one. When the evacuee order
// is reused and the last pack placed everything, planDrain replays that
// pack (drainScratch.replay) and checks fits only on the bins whose
// state may differ from what the last pack saw; the full pack runs
// otherwise, and stays the reference the replay is tested against.

package core

import (
	"slices"

	"agilepower/internal/host"
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

// planned is one evacuee as a pack placed it: its key and sizes as
// packed, and the bin position it went to.
type planned struct {
	key   int
	cpu   float64
	mem   float64
	group string
	bin   int32
}

// drainScratch is the completion replan's reusable memory. The plan it
// holds — items, the packer's order and placement — is valid until the
// next planDrain; last keeps the same pack for that replan to replay.
type drainScratch struct {
	pk packer
	// items are the evacuees in drain order: evacuating hosts in census
	// order, each host's residents by ascending VM ID.
	items []Item
	// last is the last pack in processing order. lastOK reports that
	// it placed every evacuee; otherwise only its keys (the order) are
	// meaningful.
	last   []planned
	lastOK bool
	// start holds each bin's starting state (key, capacities, groups;
	// nothing used) as the last pack saw it, by bin position.
	start []binState
	// dirty[b] marks bin b as one whose state may differ from what the
	// last pack saw at the same point in the order; dirtyBins lists the
	// dirty bins in ascending order.
	dirty     []bool
	dirtyBins []int32
	// seen[vid-1] == gen marks the current plan's evacuees; at[vid-1]
	// is then the VM's position in items.
	seen []uint32
	at   []int32
	gen  uint32
	// sorts counts the full sorts sortItems fell back to; every other
	// call reused the last order. replays counts the packs replayed
	// from the last one; every other call ran the full pack.
	sorts   int
	replays int
}

// sortItems stamps the current evacuees in the per-VM index (maxVM is
// the cluster's VM ID high-water mark), sets the packer's processing
// order for them, and reports whether it reused the last pack's order.
// It reuses it when the current items are exactly a subsequence of it
// that is still strictly ordered under the current forecasts — then
// that subsequence is the one sorted order, so the check, not any
// bookkeeping, is what makes the reuse sound. It costs O(len(last) +
// len(items)); on a miss it falls back to a full sort.
func (d *drainScratch) sortItems(maxVM vm.ID) bool {
	if n := int(maxVM); len(d.seen) < n {
		d.seen = append(d.seen, make([]uint32, n-len(d.seen))...)
		d.at = append(d.at, make([]int32, n-len(d.at))...)
	}
	d.gen++
	if d.gen == 0 {
		// The stamp wrapped: clear it so no stale mark can match.
		clear(d.seen)
		d.gen = 1
	}
	for i, it := range d.items {
		d.seen[it.Key-1] = d.gen
		d.at[it.Key-1] = int32(i)
	}
	order := d.pk.order[:0]
	for j := range d.last {
		if i := d.last[j].key - 1; d.seen[i] == d.gen {
			order = append(order, d.at[i])
		}
	}
	d.pk.order = order
	if len(order) == len(d.items) && ordered(d.items, order) {
		return true
	}
	d.pk.sortItems(d.items)
	d.sorts++
	return false
}

// noteStart compares each bin's starting state — the packer's bins
// before any evacuee lands — with the previous replan's, marks the bins
// that differ or are new dirty, and keeps the new states for the next
// replan.
func (d *drainScratch) noteStart() {
	bins := d.pk.bins
	n := len(bins)
	if cap(d.dirty) < n {
		d.dirty = make([]bool, n)
		// At most every bin turns dirty, so markDirty never grows it.
		d.dirtyBins = make([]int32, 0, n)
	}
	d.dirty = d.dirty[:n]
	d.dirtyBins = d.dirtyBins[:0]
	had := len(d.start)
	if cap(d.start) < n {
		d.start = append(d.start[:cap(d.start)], make([]binState, n-cap(d.start))...)
	}
	d.start = d.start[:n]
	for b := range bins {
		s, st := &d.start[b], &bins[b]
		same := b < had && s.key == st.key && s.cpuCap == st.cpuCap && s.memCap == st.memCap &&
			slices.Equal(s.groups, st.groups)
		d.dirty[b] = !same
		if !same {
			d.dirtyBins = append(d.dirtyBins, int32(b))
			s.key, s.cpuCap, s.memCap = st.key, st.cpuCap, st.memCap
			s.groups = append(s.groups[:0], st.groups...)
		}
	}
}

// markDirty adds bin b to the dirty set, keeping dirtyBins sorted.
// Positions past the current bins (a bin the fleet no longer has) are
// ignored.
func (d *drainScratch) markDirty(b int32) {
	if int(b) >= len(d.dirty) || d.dirty[b] {
		return
	}
	d.dirty[b] = true
	i, _ := slices.BinarySearch(d.dirtyBins, b)
	d.dirtyBins = slices.Insert(d.dirtyBins, i, b)
}

// record keeps the pack just run for the next replan to replay; ok
// reports whether it placed every evacuee.
func (d *drainScratch) record(ok bool) {
	last := d.last[:0]
	for _, i := range d.pk.order {
		it := &d.items[i]
		last = append(last, planned{key: it.Key, cpu: it.CPU, mem: it.MemGB, group: it.Group, bin: d.pk.place[i]})
	}
	d.last = last
	d.lastOK = ok
}

// replay places the items first-fit, as pack does under PackFFD, from
// the last pack. It needs the current order to be a subsequence of the
// last pack's (sortItems reused it), the last pack to have placed every
// evacuee, and noteStart's dirty set. It walks the last pack and the
// order together, and a bin turns dirty once its history departs from
// the last pack's:
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
// holds. The result is bit-identical to pack's. last is rewritten in
// place to the new pack as the walk goes.
func (d *drainScratch) replay() bool {
	p := &d.pk
	p.sizePlace(len(d.items))
	order := p.order
	last := d.last
	w := 0
	for j := range last {
		e := &last[j]
		if w == len(order) || d.items[order[w]].Key != e.key {
			d.markDirty(e.bin)
			continue
		}
		i := order[w]
		it := &d.items[i]
		resized := it.CPU != e.cpu || it.MemGB != e.mem || it.Group != e.group
		var b int32
		if resized {
			b = p.firstFit(it, 0)
		} else {
			b = d.refit(it, e.bin)
		}
		if b < 0 {
			d.record(false)
			return false
		}
		if resized || b != e.bin {
			d.markDirty(e.bin)
			d.markDirty(b)
			e.cpu, e.mem, e.group, e.bin = it.CPU, it.MemGB, it.Group, b
		}
		p.bins[b].add(it)
		p.place[i] = b
		if w != j {
			last[w] = *e
		}
		w++
	}
	d.last = last[:w]
	return true
}

// refit finds the first fit of an unchanged evacuee that the last pack
// put in bin c. Clean bins below c still refuse it and a clean c still
// takes it, so only the dirty bins below c, and c itself when dirty,
// need a check; if c turns it down, the scan goes on past c. A c past
// the last bin (the serving set shrank) leaves nothing more to try.
func (d *drainScratch) refit(it *Item, c int32) int32 {
	p := &d.pk
	for _, b := range d.dirtyBins {
		if b >= c {
			break
		}
		if p.bins[b].fits(it) {
			return b
		}
	}
	if int(c) >= len(p.bins) {
		return -1
	}
	if !d.dirty[c] || p.bins[c].fits(it) {
		return c
	}
	return p.firstFit(it, c+1)
}

// dest returns the planned destination of an evacuee, or false if the
// VM is not part of the current plan.
func (d *drainScratch) dest(vid vm.ID) (host.ID, bool) {
	i := int(vid) - 1
	if i < 0 || i >= len(d.seen) || d.seen[i] != d.gen {
		return 0, false
	}
	return host.ID(d.pk.bins[d.pk.place[d.at[i]]].key), true
}
