package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
)

// The placement planner answers: given forecast per-VM demand, which
// hosts should be active and where should each VM run? It is a
// two-constraint (CPU with headroom, memory strict) bin-packing with a
// minimal-moves bias: VMs stay where they are whenever their current
// host is among the chosen bins and still fits, so consolidation churn
// stays comparable to base DRM — the paper's "comparable overheads"
// claim depends on this.

// Item is one VM to place.
type Item struct {
	// Key identifies the VM.
	Key int
	// CPU is the forecast demand in cores.
	CPU float64
	// MemGB is the VM memory footprint.
	MemGB float64
	// Current is the bin key of the host the VM currently runs on
	// (negative if none).
	Current int
	// Group is the item's anti-affinity group: two items with the same
	// non-empty group never share a bin.
	Group string
}

// Bin is one candidate host.
type Bin struct {
	// Key identifies the host.
	Key int
	// CPUCap is usable CPU: host cores × target utilization headroom.
	CPUCap float64
	// MemCap is usable memory in GB.
	MemCap float64
	// Groups lists anti-affinity groups already present on the host
	// (from residents that are not packing items); items of these
	// groups cannot land here.
	Groups []string
}

// Assignment maps item keys to bin keys.
type Assignment map[int]int

// PackKind selects the bin-packing heuristic for items that must move.
type PackKind int

const (
	// PackFFD is first-fit-decreasing: items in decreasing CPU order,
	// each into the first bin with room.
	PackFFD PackKind = iota
	// PackBFD is best-fit-decreasing: each item into the feasible bin
	// with the least CPU slack remaining.
	PackBFD
)

// String names the heuristic.
func (k PackKind) String() string {
	switch k {
	case PackFFD:
		return "ffd"
	case PackBFD:
		return "bfd"
	default:
		return "pack?"
	}
}

// binState is one bin during a packing: its capacity, what the
// packing has put in it so far, and the anti-affinity groups present.
// The group list is scanned linearly — a host carries a handful of
// groups at most — and its backing array is reused across packings.
type binState struct {
	key     int
	cpuCap  float64
	memCap  float64
	cpuUsed float64
	memUsed float64
	groups  []string
}

func (b *binState) hasGroup(g string) bool {
	for _, have := range b.groups {
		if have == g {
			return true
		}
	}
	return false
}

func (b *binState) fits(it *Item) bool {
	return b.cpuUsed+it.CPU <= b.cpuCap+1e-9 && b.memUsed+it.MemGB <= b.memCap+1e-9 &&
		(it.Group == "" || !b.hasGroup(it.Group))
}

func (b *binState) add(it *Item) {
	b.cpuUsed += it.CPU
	b.memUsed += it.MemGB
	if it.Group != "" {
		b.groups = append(b.groups, it.Group)
	}
}

// packer is the packing core every caller shares: Pack and MinBins as
// map-returning wrappers, the drain replan and the scale-down search
// directly. It works on item and bin positions, never on keys, so it
// needs no maps, and it keeps its slices between packings, so a
// warmed-up packer allocates nothing.
type packer struct {
	bins []binState
	// order lists item positions in processing order: decreasing CPU,
	// ties by ascending key (see cmpItems).
	order []int32
	// place is the result: place[i] is the bin position of item i.
	place  []int32
	movers []int32
	// groups0 holds each bin's starting group count while minBins
	// runs, so a failed prefix can be put back as it started.
	groups0 []int32
}

// resetBins sizes the packer to n empty bins, keeping each bin's group
// backing array, and returns them for the caller to fill in.
func (p *packer) resetBins(n int) []binState {
	if cap(p.bins) < n {
		p.bins = append(p.bins[:cap(p.bins)], make([]binState, n-cap(p.bins))...)
	}
	p.bins = p.bins[:n]
	for i := range p.bins {
		b := &p.bins[i]
		*b = binState{groups: b.groups[:0]}
	}
	return p.bins
}

// cmpItems is the packing order: decreasing CPU, ties by ascending
// key. It is a strict total order on items with distinct keys, so
// every correct sort produces the same sequence.
func cmpItems(a, b *Item) int {
	switch {
	case a.CPU > b.CPU:
		return -1
	case a.CPU < b.CPU:
		return 1
	}
	return cmp.Compare(a.Key, b.Key)
}

// sortItems sets the processing order to a full sort of items.
func (p *packer) sortItems(items []Item) {
	order := p.order[:0]
	for i := range items {
		order = append(order, int32(i))
	}
	slices.SortFunc(order, func(a, b int32) int { return cmpItems(&items[a], &items[b]) })
	p.order = order
}

// pack assigns every item to a bin in the processing order: first, if
// home is non-nil, each item stays on its home bin (home[i] is a bin
// position; -1, or a position past the bins, for none) when it still
// fits; then the rest are packed with the chosen heuristic. It reports
// false as soon as an item fits nowhere, leaving place partly written.
func (p *packer) pack(items []Item, home []int32, kind PackKind) bool {
	p.sizePlace(len(items))
	movers := p.order
	if home != nil {
		// Pass 1: sticky placement on the current bin.
		movers = p.movers[:0]
		for _, i := range p.order {
			if h := home[i]; h >= 0 && int(h) < len(p.bins) && p.bins[h].fits(&items[i]) {
				p.bins[h].add(&items[i])
				p.place[i] = h
				continue
			}
			movers = append(movers, i)
		}
		p.movers = movers
	}
	// Pass 2: pack the movers.
	for _, i := range movers {
		it := &items[i]
		chosen := int32(-1)
		switch kind {
		case PackBFD:
			bestSlack := 0.0
			for b := range p.bins {
				st := &p.bins[b]
				if !st.fits(it) {
					continue
				}
				slack := st.cpuCap - st.cpuUsed - it.CPU
				if chosen < 0 || slack < bestSlack {
					chosen = int32(b)
					bestSlack = slack
				}
			}
		default: // PackFFD
			chosen = p.firstFit(it, 0)
		}
		if chosen < 0 {
			return false
		}
		p.bins[chosen].add(it)
		p.place[i] = chosen
	}
	return true
}

// sizePlace sizes the placement to n items.
func (p *packer) sizePlace(n int) {
	if cap(p.place) < n {
		p.place = make([]int32, n)
	}
	p.place = p.place[:n]
}

// firstFit returns the first bin at or after position from that fits
// the item, or -1.
func (p *packer) firstFit(it *Item, from int32) int32 {
	for b := int(from); b < len(p.bins); b++ {
		if p.bins[b].fits(it) {
			return int32(b)
		}
	}
	return -1
}

// Pack assigns every item to a bin, keeping items on their current bin
// when possible and packing the rest with the chosen heuristic. It
// reports ok=false if some item cannot be placed (the chosen bin set
// is too small). Item and bin keys must be unique (see Validate).
func Pack(items []Item, bins []Bin, kind PackKind) (Assignment, bool) {
	var p packer
	home := p.load(items, bins)
	p.sortItems(items)
	if !p.pack(items, home, kind) {
		return nil, false
	}
	return p.assignment(items), true
}

// load sizes p to bins in their starting state and returns each item's
// home bin position (-1 when its Current names no bin).
func (p *packer) load(items []Item, bins []Bin) []int32 {
	states := p.resetBins(len(bins))
	byKey := make(map[int]int32, len(bins))
	for i, b := range bins {
		st := &states[i]
		st.key, st.cpuCap, st.memCap = b.Key, b.CPUCap, b.MemCap
		st.groups = append(st.groups, b.Groups...)
		byKey[b.Key] = int32(i)
	}
	home := make([]int32, len(items))
	for i, it := range items {
		h, ok := byKey[it.Current]
		if !ok {
			h = -1
		}
		home[i] = h
	}
	return home
}

// assignment maps each item's key to the key of the bin it was packed
// into.
func (p *packer) assignment(items []Item) Assignment {
	assign := make(Assignment, len(items))
	for _, i := range p.order {
		assign[items[i].Key] = p.bins[p.place[i]].key
	}
	return assign
}

// Moves returns the item keys whose assignment differs from their
// current bin, in deterministic (ascending key) order.
func Moves(items []Item, assign Assignment) []int {
	var out []int
	for _, it := range items {
		if to, ok := assign[it.Key]; ok && to != it.Current {
			out = append(out, it.Key)
		}
	}
	sort.Ints(out)
	return out
}

// MinBins returns the smallest prefix length k of bins such that all
// items pack into bins[:k], and the corresponding assignment. Bins
// should be pre-ordered by preference (e.g. currently-loaded hosts
// first to minimize migrations). Returns ok=false if even all bins are
// insufficient.
func MinBins(items []Item, bins []Bin, kind PackKind) (k int, assign Assignment, ok bool) {
	var p packer
	home := p.load(items, bins)
	if k, ok = p.minBins(items, home, kind); !ok {
		return k, nil, false
	}
	return k, p.assignment(items), true
}

// minBins is MinBins on the packer's bins, which hold their starting
// state; home[i] is item i's home bin position, or -1. It returns the
// smallest prefix length that packs every item and whether one exists;
// on success p.place holds that packing. Packing into bins[:k] is Pack
// on those bins: a home past the prefix counts as none, and the items
// are sorted once, since every sort yields the one order. A prefix
// that fails is put back to its starting state before the next is
// tried.
func (p *packer) minBins(items []Item, home []int32, kind PackKind) (int, bool) {
	all := p.bins
	if len(items) == 0 {
		return 0, true
	}
	// Lower bound from aggregate capacity, to skip infeasible prefixes.
	needCPU, needMem := 0.0, 0.0
	for _, it := range items {
		needCPU += it.CPU
		needMem += it.MemGB
	}
	p.sortItems(items)
	g0 := slices.Grow(p.groups0[:0], len(all))
	for b := range all {
		g0 = append(g0, int32(len(all[b].groups)))
	}
	p.groups0 = g0
	cumCPU, cumMem := 0.0, 0.0
	for k := 1; k <= len(all); k++ {
		cumCPU += all[k-1].cpuCap
		cumMem += all[k-1].memCap
		if cumCPU+1e-9 < needCPU || cumMem+1e-9 < needMem {
			continue
		}
		p.bins = all[:k]
		ok := p.pack(items, home, kind)
		p.bins = all
		if ok {
			return k, true
		}
		for b := range all[:k] {
			st := &all[b]
			st.cpuUsed, st.memUsed = 0, 0
			st.groups = st.groups[:g0[b]]
		}
	}
	return len(all), false
}

// Validate sanity-checks the planner inputs.
func Validate(items []Item, bins []Bin) error {
	seen := make(map[int]bool, len(bins))
	for _, b := range bins {
		if b.CPUCap < 0 || b.MemCap < 0 {
			return fmt.Errorf("core: bin %d has negative capacity", b.Key)
		}
		if seen[b.Key] {
			return fmt.Errorf("core: duplicate bin key %d", b.Key)
		}
		seen[b.Key] = true
	}
	seenIt := make(map[int]bool, len(items))
	for _, it := range items {
		if it.CPU < 0 || it.MemGB < 0 {
			return fmt.Errorf("core: item %d has negative size", it.Key)
		}
		if seenIt[it.Key] {
			return fmt.Errorf("core: duplicate item key %d", it.Key)
		}
		seenIt[it.Key] = true
	}
	return nil
}
