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

package core

import (
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

// drainScratch is the completion replan's reusable memory. The plan it
// holds — items, the packer's order and placement — is valid until the
// next planDrain.
type drainScratch struct {
	pk packer
	// items are the evacuees in drain order: evacuating hosts in census
	// order, each host's residents by ascending VM ID.
	items []Item
	// prev is the previous plan's processing order, by VM ID.
	prev []int
	// seen[vid-1] == gen marks the current plan's evacuees; at[vid-1]
	// is then the VM's position in items.
	seen []uint32
	at   []int32
	gen  uint32
	// sorts counts the full sorts sortItems fell back to; every other
	// call reused the previous order.
	sorts int
}

// sortItems stamps the current evacuees in the per-VM index (maxVM is
// the cluster's VM ID high-water mark) and sets the packer's processing
// order for them. It reuses the previous plan's order when the current
// items are exactly a subsequence of it that is still strictly ordered
// under the current forecasts — then that subsequence is the one sorted
// order, so the check, not any bookkeeping, is what makes the reuse
// sound. It costs O(len(prev) + len(items)); on a miss it falls back to
// a full sort.
func (d *drainScratch) sortItems(maxVM vm.ID) {
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
	for _, k := range d.prev {
		if i := k - 1; d.seen[i] == d.gen {
			order = append(order, d.at[i])
		}
	}
	d.pk.order = order
	if len(order) != len(d.items) || !ordered(d.items, order) {
		d.pk.sortItems(d.items)
		d.sorts++
	}
	d.prev = d.prev[:0]
	for _, i := range d.pk.order {
		d.prev = append(d.prev, d.items[i].Key)
	}
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
