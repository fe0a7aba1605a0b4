package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"
	"time"

	"agilepower/internal/cluster"
	"agilepower/internal/host"
	"agilepower/internal/sim"
	"agilepower/internal/vm"
	"agilepower/internal/workload"
)

// The map-based drain planner the dense one replaced, kept as the
// differential oracle: oraclePack is the original Pack, and
// oracleBuildBins/oraclePlanDrain the original bin builder and drain
// planner. The dense planner must return the identical (assignment,
// ok) on every input.

type oracleBinState struct {
	bin     Bin
	cpuUsed float64
	memUsed float64
	groups  map[string]bool
}

func (b *oracleBinState) fits(it Item) bool {
	if it.Group != "" && b.groups[it.Group] {
		return false
	}
	return b.cpuUsed+it.CPU <= b.bin.CPUCap+1e-9 && b.memUsed+it.MemGB <= b.bin.MemCap+1e-9
}

func (b *oracleBinState) add(it Item) {
	b.cpuUsed += it.CPU
	b.memUsed += it.MemGB
	if it.Group != "" {
		if b.groups == nil {
			b.groups = make(map[string]bool)
		}
		b.groups[it.Group] = true
	}
}

func oraclePack(items []Item, bins []Bin, kind PackKind) (Assignment, bool) {
	states := make([]*oracleBinState, len(bins))
	byKey := make(map[int]*oracleBinState, len(bins))
	for i, b := range bins {
		st := &oracleBinState{bin: b}
		for _, g := range b.Groups {
			if st.groups == nil {
				st.groups = make(map[string]bool)
			}
			st.groups[g] = true
		}
		states[i] = st
		byKey[b.Key] = st
	}
	order := append([]Item(nil), items...)
	sort.Slice(order, func(i, j int) bool {
		if order[i].CPU != order[j].CPU {
			return order[i].CPU > order[j].CPU
		}
		return order[i].Key < order[j].Key
	})
	assign := make(Assignment, len(items))
	var movers []Item
	for _, it := range order {
		if st, ok := byKey[it.Current]; ok && st.fits(it) {
			st.add(it)
			assign[it.Key] = it.Current
			continue
		}
		movers = append(movers, it)
	}
	for _, it := range movers {
		var chosen *oracleBinState
		switch kind {
		case PackBFD:
			bestSlack := 0.0
			for _, st := range states {
				if !st.fits(it) {
					continue
				}
				slack := st.bin.CPUCap - st.cpuUsed - it.CPU
				if chosen == nil || slack < bestSlack {
					chosen = st
					bestSlack = slack
				}
			}
		default:
			for _, st := range states {
				if st.fits(it) {
					chosen = st
					break
				}
			}
		}
		if chosen == nil {
			return nil, false
		}
		chosen.add(it)
		assign[it.Key] = chosen.bin.Key
	}
	return assign, true
}

func oracleBuildBins(m *Manager, hosts []*host.Host) []Bin {
	inboundCPU := make(map[host.ID]float64)
	inboundMem := make(map[host.ID]float64)
	inboundGroups := make(map[host.ID][]string)
	for _, mig := range m.cl.Migrations().Inflights() {
		if v, ok := m.cl.VM(mig.VM); ok {
			dst := host.ID(mig.Dst)
			inboundCPU[dst] += m.cl.VMDemand(v, m.cl.Engine().Now())
			inboundMem[dst] += v.MemoryGB()
			if g := v.Group(); g != "" {
				inboundGroups[dst] = append(inboundGroups[dst], g)
			}
		}
	}
	bins := make([]Bin, len(hosts))
	for i, h := range hosts {
		cpu := h.Cores()*m.cfg.TargetUtil - inboundCPU[h.ID()]
		mem := h.MemoryGB() - inboundMem[h.ID()]
		if cpu < 0 {
			cpu = 0
		}
		if mem < 0 {
			mem = 0
		}
		bins[i] = Bin{Key: int(h.ID()), CPUCap: cpu, MemCap: mem, Groups: inboundGroups[h.ID()]}
	}
	return bins
}

func oraclePlanDrain(m *Manager, forecasts []float64, c census) (Assignment, bool) {
	bins := oracleBuildBins(m, m.trustedServing(c))
	binIdx := make(map[int]int, len(bins))
	for i, b := range bins {
		binIdx[b.Key] = i
	}
	evacIDs := make(map[host.ID]bool, len(c.evacuating))
	for _, h := range c.evacuating {
		evacIDs[h.ID()] = true
	}
	var items []Item
	for _, v := range m.cl.VMs() {
		if m.cl.Migrating(v.ID()) {
			continue
		}
		hid, ok := m.cl.Placement(v.ID())
		if !ok {
			continue
		}
		if evacIDs[hid] {
			items = append(items, Item{
				Key:     int(v.ID()),
				CPU:     forecasts[v.ID()-1],
				MemGB:   v.MemoryGB(),
				Current: -1,
				Group:   v.Group(),
			})
			continue
		}
		if i, ok := binIdx[int(hid)]; ok {
			bins[i].CPUCap -= forecasts[v.ID()-1]
			bins[i].MemCap -= v.MemoryGB()
			if bins[i].CPUCap < 0 {
				bins[i].CPUCap = 0
			}
			if bins[i].MemCap < 0 {
				bins[i].MemCap = 0
			}
			if g := v.Group(); g != "" {
				bins[i].Groups = append(bins[i].Groups, g)
			}
		}
	}
	return oraclePack(items, bins, m.cfg.Packing)
}

// densePlan runs the dense planner and returns its plan as an
// Assignment over the evacuees, for comparison with the oracle.
func densePlan(m *Manager, forecasts []float64, c census) (Assignment, bool) {
	if !m.planDrain(forecasts, c) {
		return nil, false
	}
	plan := livePlan(&m.drain)
	assign := make(Assignment, len(plan))
	for _, e := range plan {
		dst, ok := m.drain.dest(vm.ID(e.vm))
		if !ok {
			return nil, false
		}
		assign[int(e.vm)] = int(dst)
	}
	return assign, true
}

// livePlan returns the drain plan's evacuees in processing order,
// without its holes.
func livePlan(d *drainScratch) []planned {
	var out []planned
	for _, e := range d.plan {
		if e.mark != entryDead {
			out = append(out, e)
		}
	}
	return out
}

// planEvacuees returns the plan's evacuees as items, in its order.
func planEvacuees(d *drainScratch) []Item {
	var items []Item
	for _, e := range livePlan(d) {
		items = append(items, Item{Key: int(e.vm), CPU: e.cpu, MemGB: e.mem, Current: -1, Group: e.group})
	}
	return items
}

// orderReusable reports whether the order-reuse check should hit for
// the current evacuees: they are a subsequence of the previous order
// that is still strictly ordered. The test holds the planner to it —
// reuse exactly when reusable — and uses it to prove both branches
// run.
func orderReusable(prev []int, items []Item) bool {
	pos := make(map[int]int, len(items))
	for i, it := range items {
		pos[it.Key] = i
	}
	var seq []Item
	for _, k := range prev {
		if i, ok := pos[k]; ok {
			seq = append(seq, items[i])
		}
	}
	if len(seq) != len(items) {
		return false
	}
	for j := 1; j < len(seq); j++ {
		if cmpItems(&seq[j-1], &seq[j]) >= 0 {
			return false
		}
	}
	return true
}

// lastOrder lists the keys of the drain's plan: the previous
// processing order.
func lastOrder(d *drainScratch) []int {
	var keys []int
	for _, e := range livePlan(d) {
		keys = append(keys, int(e.vm))
	}
	return keys
}

func sameAssignment(a, b Assignment) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// TestPackMatchesOracle drives the shared packing core through Pack on
// random instances — sticky and homeless items, anti-affinity groups
// on items and bins, tight and infeasible capacity — under both
// heuristics.
func TestPackMatchesOracle(t *testing.T) {
	rng := sim.NewRNG(42)
	groups := []string{"", "", "a", "b", "c"}
	for trial := 0; trial < 2000; trial++ {
		nBins, nItems := rng.Intn(12)+1, rng.Intn(40)
		bins := make([]Bin, nBins)
		for i := range bins {
			bins[i] = Bin{Key: i + 1, CPUCap: rng.Range(0, 12), MemCap: rng.Range(0, 64)}
			if rng.Bernoulli(0.3) {
				bins[i].Groups = []string{groups[rng.Intn(len(groups))]}
			}
		}
		items := make([]Item, nItems)
		for i := range items {
			items[i] = Item{
				Key:     rng.Intn(1000)*64 + i,      // unique, not ordered
				CPU:     float64(rng.Intn(8)) * 0.5, // ties exercise the key order
				MemGB:   rng.Range(0, 16),
				Current: rng.Intn(nBins+4) - 2,
				Group:   groups[rng.Intn(len(groups))],
			}
		}
		for _, kind := range []PackKind{PackFFD, PackBFD} {
			want, wantOK := oraclePack(items, bins, kind)
			got, gotOK := Pack(items, bins, kind)
			if gotOK != wantOK || !sameAssignment(got, want) {
				t.Fatalf("trial %d %v: Pack = %v,%v; oracle %v,%v", trial, kind, got, gotOK, want, wantOK)
			}
		}
	}
}

// oracleMinBins is the original MinBins: the aggregate lower bound,
// then a fresh oraclePack of every prefix it does not rule out.
func oracleMinBins(items []Item, bins []Bin, kind PackKind) (int, Assignment, bool) {
	if len(items) == 0 {
		return 0, Assignment{}, true
	}
	needCPU, needMem := 0.0, 0.0
	for _, it := range items {
		needCPU += it.CPU
		needMem += it.MemGB
	}
	cumCPU, cumMem := 0.0, 0.0
	for k := 1; k <= len(bins); k++ {
		cumCPU += bins[k-1].CPUCap
		cumMem += bins[k-1].MemCap
		if cumCPU+1e-9 < needCPU || cumMem+1e-9 < needMem {
			continue
		}
		if a, ok := oraclePack(items, bins[:k], kind); ok {
			return k, a, true
		}
	}
	return len(bins), nil, false
}

// TestMinBinsMatchesOracle holds MinBins, which sorts once and restores
// each failed prefix on one packer, to a fresh pack of every prefix, on
// random instances under both heuristics: homes inside and past the
// prefixes, anti-affinity groups on items and bins, and fleets too
// small to pack at all.
func TestMinBinsMatchesOracle(t *testing.T) {
	rng := sim.NewRNG(7)
	groups := []string{"", "", "a", "b", "c"}
	var found, none int
	for trial := 0; trial < 2000; trial++ {
		nBins, nItems := rng.Intn(12)+1, rng.Intn(30)
		bins := make([]Bin, nBins)
		for i := range bins {
			bins[i] = Bin{Key: i + 1, CPUCap: rng.Range(0, 12), MemCap: rng.Range(0, 64)}
			if rng.Bernoulli(0.3) {
				bins[i].Groups = []string{groups[rng.Intn(len(groups))]}
			}
		}
		items := make([]Item, nItems)
		for i := range items {
			items[i] = Item{
				Key:     rng.Intn(1000)*64 + i,
				CPU:     float64(rng.Intn(8)) * 0.5,
				MemGB:   rng.Range(0, 16),
				Current: rng.Intn(nBins+4) - 2,
				Group:   groups[rng.Intn(len(groups))],
			}
		}
		for _, kind := range []PackKind{PackFFD, PackBFD} {
			wantK, want, wantOK := oracleMinBins(items, bins, kind)
			gotK, got, gotOK := MinBins(items, bins, kind)
			if gotK != wantK || gotOK != wantOK || !sameAssignment(got, want) {
				t.Fatalf("trial %d %v: MinBins = %d,%v,%v; oracle %d,%v,%v", trial, kind, gotK, got, gotOK, wantK, want, wantOK)
			}
			if gotOK {
				found++
			} else {
				none++
			}
		}
	}
	if found == 0 || none == 0 {
		t.Fatalf("coverage: %d packed, %d unpackable; want both > 0", found, none)
	}
}

// drainGroups is drainWorld's anti-affinity palette: half the VMs
// carry one of three groups, so many grouped evacuees fit nowhere.
var drainGroups = []string{"", "", "", "db", "web", "cache"}

// drainWorld is a started cluster with random residents and in-flight
// migrations under a manager that never runs on its own: the test
// drives planDrain directly, on forecasts it writes into the manager's
// own vector through setForecast, so the planning rows see every edit.
// The manager checks its rows against the whole-fleet pass. Each VM's
// group is drawn from groups.
func drainWorld(t *testing.T, seed uint64, kind PackKind, groups []string) (*cluster.Cluster, *Manager, *sim.RNG) {
	t.Helper()
	rng := sim.NewRNG(seed)
	eng := sim.NewEngine(seed)
	cl, err := cluster.New(eng, cluster.Config{})
	if err != nil {
		t.Fatal(err)
	}
	nHosts := rng.Intn(10) + 6
	for i := 0; i < nHosts; i++ {
		cores := []float64{8, 16, 32}[rng.Intn(3)]
		if _, err := cl.AddHost(host.Config{Cores: cores, MemoryGB: []float64{32, 64, 128}[rng.Intn(3)]}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < nHosts*4; i++ {
		cfg := vm.Config{
			VCPUs:    4,
			MemoryGB: []float64{2, 4, 8}[rng.Intn(3)],
			Trace:    workload.Constant(rng.Range(0.2, 3)),
			Group:    groups[rng.Intn(len(groups))],
		}
		// Anti-affinity or memory can refuse a host; try a few.
		for try := 0; try < 8; try++ {
			if _, err := cl.AddVM(cfg, host.ID(rng.Intn(nHosts)+1)); err == nil {
				break
			}
		}
	}
	restore := CheckPlanningRowsForAll()
	m, err := NewManager(cl, Config{Policy: DPMS3, Packing: kind})
	restore()
	if err != nil {
		t.Fatal(err)
	}
	m.growVMSlots()
	cl.Start()
	// In-flight migrations, some carrying groups, charged to their
	// destinations (serving or evacuating alike).
	for i := 0; i < nHosts*2; i++ {
		vms := cl.VMs()
		_ = cl.StartMigration(vms[rng.Intn(len(vms))].ID(), host.ID(rng.Intn(nHosts)+1))
	}
	return cl, m, rng
}

// TestPlanDrainMatchesOracle compares the dense planner with the
// oracle on randomized worlds: FFD and BFD; anti-affinity groups on
// residents and on in-flight moves; in-flight moves charged to their
// destinations; forecasts high enough to make plans infeasible; and
// evacuee sets that shrink, grow and re-order between consecutive
// calls, with forecasts that hold still or move, so the order-reuse
// check both hits and misses.
func TestPlanDrainMatchesOracle(t *testing.T) {
	var hits, misses, infeasible, feasible int
	for seed := uint64(1); seed <= 24; seed++ {
		kind := PackFFD
		if seed%2 == 0 {
			kind = PackBFD
		}
		cl, m, rng := drainWorld(t, seed, kind, drainGroups)
		hosts := cl.Hosts()
		forecasts := m.fcv
		var evac []*host.Host
		for call := 0; call < 60; call++ {
			switch op := rng.Intn(6); {
			case op == 0 || len(evac) == 0: // grow
				if h := hosts[rng.Intn(len(hosts))]; !slices.Contains(evac, h) {
					evac = append(evac, h)
				}
			case op == 1 && len(evac) > 1: // shrink
				i := rng.Intn(len(evac))
				evac = append(evac[:i:i], evac[i+1:]...)
			case op == 2: // re-order
				perm := rng.Perm(len(evac))
				shuffled := make([]*host.Host, len(evac))
				for i, j := range perm {
					shuffled[i] = evac[j]
				}
				evac = shuffled
			case op == 3: // new forecasts, sometimes high enough to fail
				scale := []float64{0.25, 0.5, 1, 4}[rng.Intn(4)]
				for i := range forecasts {
					m.setForecast(vm.ID(i+1), float64(rng.Intn(8))*0.25*scale)
				}
			case op == 4: // nudge one forecast
				i := rng.Intn(len(forecasts))
				m.setForecast(vm.ID(i+1), forecasts[i]+rng.Range(-0.5, 0.5))
			}
			c := census{evacuating: evac}
			for _, h := range hosts {
				if !slices.Contains(evac, h) {
					c.serving = append(c.serving, h)
				}
			}
			for i := range forecasts {
				m.setForecast(vm.ID(i+1), max(forecasts[i], 0))
			}
			want, wantOK := oraclePlanDrain(m, forecasts, c)
			prev := lastOrder(&m.drain)
			sorts := m.drain.sorts
			got, gotOK := densePlan(m, forecasts, c)
			if gotOK != wantOK || !sameAssignment(got, want) {
				t.Fatalf("seed %d call %d: dense plan %v,%v; oracle %v,%v", seed, call, got, gotOK, want, wantOK)
			}
			evacuees := planEvacuees(&m.drain)
			reusable, sorted := orderReusable(prev, evacuees), m.drain.sorts != sorts
			if reusable == sorted {
				t.Fatalf("seed %d call %d: order reusable %v, but full sort run %v", seed, call, reusable, sorted)
			}
			if len(evacuees) > 1 {
				if reusable {
					hits++
				} else {
					misses++
				}
			}
			if gotOK {
				feasible++
			} else {
				infeasible++
			}
		}
	}
	if hits == 0 || misses == 0 || feasible == 0 || infeasible == 0 {
		t.Fatalf("coverage: %d order-reuse hits, %d misses, %d feasible, %d infeasible plans; want all > 0",
			hits, misses, feasible, infeasible)
	}
	t.Logf("%d order-reuse hits, %d misses; %d feasible, %d infeasible plans", hits, misses, feasible, infeasible)
}

// hostRole is a host's part in a replayHarness census.
type hostRole uint8

const (
	roleServing hostRole = iota
	roleEvacuating
	roleOut // neither: parked, say
)

// replayCoverage counts what consecutive replans exercised: replays
// and, within them, unchanged evacuees a dirty bin moved, resized
// evacuees (and those that landed in their old bin again) and dropped
// ones; and the full packs run instead of a replay after a re-sort,
// after an infeasible pack and under BFD.
type replayCoverage struct {
	replays, moved, resized, resizedStayed, dropped int
	resorted, afterInfeasible, underBFD             int
}

// replayHarness drives consecutive planDrain calls on a drainWorld
// fleet with one small change between calls — a move starting or
// finishing, a forecast nudged, an evacuee grown within its order, a
// host joining or leaving the drain or the serving set, a grouped move
// landing on a bin — and holds every plan to the oracle and every
// replay decision to what the previous plan allows. Forecast edits go
// through the manager's setter, as the forecast upkeep's do.
type replayHarness struct {
	t    *testing.T
	cl   *cluster.Cluster
	m    *Manager
	rng  *sim.RNG
	kind PackKind
	role []hostRole // by host.ID-1
	cov  replayCoverage
}

func newReplayHarness(t *testing.T, seed uint64, kind PackKind) *replayHarness {
	t.Helper()
	// One VM in five carries a group, so most drains are feasible.
	cl, m, rng := drainWorld(t, seed, kind, []string{"", "", "", "", "", "", "", "", "db", "web"})
	h := &replayHarness{t: t, cl: cl, m: m, rng: rng, kind: kind}
	h.rescale(2)
	h.role = make([]hostRole, len(cl.Hosts()))
	for i := range h.role {
		if i%3 == 0 {
			h.role[i] = roleEvacuating
		}
	}
	return h
}

// census lists serving and evacuating hosts in cluster order, as
// takeCensus does.
func (h *replayHarness) census() census {
	var c census
	for _, hs := range h.cl.Hosts() {
		switch h.role[hs.ID()-1] {
		case roleServing:
			c.serving = append(c.serving, hs)
		case roleEvacuating:
			c.evacuating = append(c.evacuating, hs)
		}
	}
	return c
}

// plan runs one replan, compares it with the oracle, checks that it
// replayed exactly when the previous plan allowed, and tallies what it
// exercised.
func (h *replayHarness) plan(step int) {
	h.t.Helper()
	c := h.census()
	d := &h.m.drain
	prev, prevOK := livePlan(d), d.planOK
	sorts, replays := d.sorts, d.replays
	want, wantOK := oraclePlanDrain(h.m, h.m.fcv, c)
	got, gotOK := densePlan(h.m, h.m.fcv, c)
	if gotOK != wantOK || !sameAssignment(got, want) {
		h.t.Fatalf("step %d: dense plan %v,%v; oracle %v,%v", step, got, gotOK, want, wantOK)
	}
	reused, replayed := d.sorts == sorts, d.replays != replays
	if replayed != (reused && prevOK && h.kind == PackFFD) {
		h.t.Fatalf("step %d: replayed %v, but order reused %v, previous pack feasible %v, %v",
			step, replayed, reused, prevOK, h.kind)
	}
	switch {
	case !reused:
		h.cov.resorted++
	case !prevOK:
		h.cov.afterInfeasible++
	case h.kind == PackBFD:
		h.cov.underBFD++
	}
	if !replayed || !gotOK {
		return
	}
	h.cov.replays++
	now := make(map[int32]planned, len(prev))
	for _, e := range livePlan(d) {
		now[e.vm] = e
	}
	for _, e := range prev {
		switch n, ok := now[e.vm]; {
		case !ok:
			h.cov.dropped++
		case n.cpu != e.cpu || n.mem != e.mem || n.group != e.group:
			h.cov.resized++
			if n.bin == e.bin {
				h.cov.resizedStayed++
			}
		case n.bin != e.bin:
			h.cov.moved++
		}
	}
}

// step applies change op (taken modulo the number of changes).
func (h *replayHarness) step(op int) {
	switch op % 9 {
	case 0:
		h.startMove()
	case 1:
		h.finishMove()
	case 2:
		i := h.rng.Intn(len(h.m.fcv))
		h.m.setForecast(vm.ID(i+1), max(h.m.fcv[i]+h.rng.Range(-0.3, 0.3), 0))
	case 3:
		h.grow()
	case 4:
		h.flipHost()
	case 5:
		h.groupMove()
	case 6:
		h.rescale([]float64{1, 2, 3, 8}[h.rng.Intn(4)])
	case 7:
		// The dirty feed fires for a draining host with nothing changed:
		// its segment is recomputed with the same VMs.
		if id := h.randomHost(roleEvacuating); id != 0 {
			h.cl.HostChanged(id)
		}
	case 8:
		// An evacuee's forecast moves and comes back before the replan:
		// its segment is recomputed, and it is set to its own value.
		if plan := livePlan(&h.m.drain); len(plan) > 0 {
			id := vm.ID(plan[h.rng.Intn(len(plan))].vm)
			fc := h.m.fcv[id-1]
			h.m.setForecast(id, fc+1)
			h.m.setForecast(id, fc)
		}
	}
}

// rescale draws every forecast afresh; scale 4 usually makes the drain
// infeasible.
func (h *replayHarness) rescale(scale float64) {
	for i := range h.m.fcv {
		h.m.setForecast(vm.ID(i+1), float64(h.rng.Intn(8))*0.25*scale)
	}
}

// startMove starts one evacuee's move to its planned destination, or
// to a random serving host if the last plan did not place it.
func (h *replayHarness) startMove() {
	plan := livePlan(&h.m.drain)
	for try := 0; try < 4 && len(plan) > 0; try++ {
		vid := vm.ID(plan[h.rng.Intn(len(plan))].vm)
		dst := h.randomHost(roleServing)
		if h.m.drain.planOK {
			// An infeasible plan's placement is only partly written.
			dst, _ = h.m.drain.dest(vid)
		}
		if dst != 0 && h.cl.StartMigration(vid, dst) == nil {
			return
		}
	}
}

// finishMove runs the world to the first in-flight move's completion.
func (h *replayHarness) finishMove() {
	var end sim.Time = -1
	for _, mig := range h.cl.Migrations().Inflights() {
		if end < 0 || mig.End < end {
			end = mig.End
		}
	}
	if end >= 0 {
		h.cl.Engine().RunUntil(end)
	}
}

// grow raises one evacuee's forecast by less than the gap to the item
// ahead of it in the last plan, so the order holds but the evacuee may
// no longer fit its old bin.
func (h *replayHarness) grow() {
	last := livePlan(&h.m.drain)
	if len(last) == 0 {
		return
	}
	j := h.rng.Intn(len(last))
	gap := 1.0
	if j > 0 {
		gap = last[j-1].cpu - last[j].cpu
	}
	if id := vm.ID(last[j].vm); gap > 0 && h.m.fcv[id-1] == last[j].cpu {
		h.m.setForecast(id, h.m.fcv[id-1]+gap*h.rng.Range(0.5, 0.99))
	}
}

// flipHost moves one host between serving, evacuating and neither.
func (h *replayHarness) flipHost() {
	i := h.rng.Intn(len(h.role))
	h.role[i] = (h.role[i] + 1 + hostRole(h.rng.Intn(2))) % 3
}

// groupMove starts moving a VM that carries an anti-affinity group to
// a serving host, whose bin then carries the group.
func (h *replayHarness) groupMove() {
	vms := h.cl.VMs()
	for try := 0; try < 8; try++ {
		v := vms[h.rng.Intn(len(vms))]
		if v.Group() == "" || h.cl.Migrating(v.ID()) {
			continue
		}
		if dst := h.randomHost(roleServing); dst != 0 && h.cl.StartMigration(v.ID(), dst) == nil {
			return
		}
	}
}

func (h *replayHarness) randomHost(r hostRole) host.ID {
	var ids []host.ID
	for i, have := range h.role {
		if have == r {
			ids = append(ids, host.ID(i+1))
		}
	}
	if len(ids) == 0 {
		return 0
	}
	return ids[h.rng.Intn(len(ids))]
}

// TestDrainReplayMatchesOracle holds consecutive replans to the oracle
// while small changes land between them, and requires that every path
// of the replay and every fallback to the full pack ran. Leaving
// clean the old bin of a resized evacuee that lands there again, a
// dropped evacuee's bin or a moved evacuee's old bin each fails it. The
// growth step is what catches the first: nudges alone seldom resize an
// evacuee and keep the order.
func TestDrainReplayMatchesOracle(t *testing.T) {
	var cov replayCoverage
	weights := []int{0, 0, 0, 1, 1, 2, 3, 3, 3, 4, 5, 6, 7, 8}
	for seed := uint64(1); seed <= 24; seed++ {
		kind := PackFFD
		if seed%4 == 0 {
			kind = PackBFD
		}
		h := newReplayHarness(t, seed, kind)
		h.plan(0)
		for call := 1; call <= 80; call++ {
			h.step(weights[h.rng.Intn(len(weights))])
			h.plan(call)
		}
		c := h.cov
		cov.replays += c.replays
		cov.moved += c.moved
		cov.resized += c.resized
		cov.resizedStayed += c.resizedStayed
		cov.dropped += c.dropped
		cov.resorted += c.resorted
		cov.afterInfeasible += c.afterInfeasible
		cov.underBFD += c.underBFD
	}
	if cov.replays == 0 || cov.moved == 0 || cov.resized == 0 || cov.resizedStayed == 0 || cov.dropped == 0 ||
		cov.resorted == 0 || cov.afterInfeasible == 0 || cov.underBFD == 0 {
		t.Fatalf("coverage %+v: want every count > 0", cov)
	}
	t.Logf("coverage %+v", cov)
}

// FuzzDrainReplay drives the replay harness with fuzzed change
// sequences: each byte picks one change between two replans. Changes
// 7 and 8 leave the plan as it was and only mark it: a draining host's
// segment recomputed with the same VMs, and a forecast moved and set
// back to its own value.
func FuzzDrainReplay(f *testing.F) {
	f.Add(uint64(1), false, []byte{3, 0, 3, 3, 1, 0, 2, 3, 4, 3, 5, 0, 3})
	f.Add(uint64(2), false, []byte{6, 0, 0, 3, 6, 3, 1, 1, 3, 4, 4, 3})
	f.Add(uint64(3), true, []byte{0, 3, 1, 2, 4, 5, 6, 3})
	f.Add(uint64(5), false, []byte{5, 3, 5, 3, 0, 1, 3, 3, 3, 2, 2, 0, 0, 1})
	f.Add(uint64(8), false, []byte{4, 3, 4, 3, 0, 3, 1, 3, 6, 3, 0, 3})
	f.Add(uint64(4), false, []byte{7, 0, 8, 3, 7, 1, 8, 8, 0, 7, 3, 1, 7, 2, 8, 0, 4, 7, 8})
	f.Add(uint64(6), false, []byte{8, 7, 0, 7, 3, 8, 1, 7, 5, 8, 0, 7, 8, 3, 4, 7, 1, 8})
	f.Fuzz(func(t *testing.T, seed uint64, bfd bool, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		kind := PackFFD
		if bfd {
			kind = PackBFD
		}
		h := newReplayHarness(t, seed, kind)
		h.plan(0)
		for i, op := range ops {
			h.step(int(op))
			h.plan(i + 1)
		}
	})
}

// TestPlanDrainMatchesOracleLive compares the planners on the live
// state of the parity fleets — the manager's own forecasts, census and
// cluster, with churn, crashes, maintenance, injected faults and,
// optionally, a lossy control plane — at every simulated minute.
func TestPlanDrainMatchesOracleLive(t *testing.T) {
	const horizon = 8 * time.Hour
	compared := 0
	for seed := uint64(1); seed <= 3; seed++ {
		for _, withPlane := range []bool{false, true} {
			script := parityScript(seed, 16, 64, sim.Time(horizon))
			w := buildParityWorld(t, true, parityTraces(seed*101, 0), script, parityVariant{plane: withPlane})
			for at := sim.Time(time.Minute); at <= sim.Time(horizon); at += sim.Time(time.Minute) {
				w.eng.RunUntil(at)
				c := w.m.takeCensus()
				if len(c.evacuating) == 0 {
					continue
				}
				want, wantOK := oraclePlanDrain(w.m, w.m.fcv, c)
				got, gotOK := densePlan(w.m, w.m.fcv, c)
				if gotOK != wantOK || !sameAssignment(got, want) {
					t.Fatalf("seed %d plane %v at %v: dense plan %v,%v; oracle %v,%v",
						seed, withPlane, time.Duration(at), got, gotOK, want, wantOK)
				}
				compared++
			}
		}
	}
	if compared == 0 {
		t.Fatal("no instant had a drain in progress")
	}
	t.Logf("compared %d live drain plans", compared)
}

// TestBinRowsTrackInboundDemand pins the bin row's inbound key: a VM
// migrating into a serving host changes demand while nothing dirties
// the host, so its bin row stays clean, and the next replan must still
// charge the new inbound demand, not the row's.
func TestBinRowsTrackInboundDemand(t *testing.T) {
	eng := sim.NewEngine(1)
	cl, err := cluster.New(eng, cluster.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := cl.AddHost(host.Config{Cores: 16, MemoryGB: 512}); err != nil {
			t.Fatal(err)
		}
	}
	// The mover's demand steps from 1 to 2 cores after a minute; at
	// 128 GB its move takes longer than that.
	step := &workload.Trace{Interval: time.Minute, Samples: []float64{1, 2}}
	mover, err := cl.AddVM(vm.Config{VCPUs: 4, MemoryGB: 128, Trace: step}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.AddVM(vm.Config{VCPUs: 2, MemoryGB: 4, Trace: workload.Constant(0.5)}, 3); err != nil {
		t.Fatal(err)
	}
	restore := CheckPlanningRowsForAll()
	m, err := NewManager(cl, Config{Policy: DPMS3})
	restore()
	if err != nil {
		t.Fatal(err)
	}
	m.growVMSlots()
	cl.Start()
	if err := cl.StartMigration(mover.ID(), 2); err != nil {
		t.Fatal(err)
	}
	hosts := cl.Hosts()
	c := census{serving: hosts[:2], evacuating: hosts[2:]}
	for _, at := range []time.Duration{0, 90 * time.Second} {
		eng.RunUntil(sim.Time(at))
		if !cl.Migrating(mover.ID()) {
			t.Fatalf("the move finished by %v", at)
		}
		if !m.planDrain(m.fcv, c) {
			t.Fatal("drain plan infeasible")
		}
		want := 16*0.7 - cl.VMDemand(mover, eng.Now())
		if got := m.drain.pk.bins[1].cpuCap; got != want {
			t.Fatalf("at %v host 2's bin has %v cores, want %v", at, got, want)
		}
	}
}

// drainShape sizes a drainReplanFixture: hosts 16-core/256 GB hosts
// with vmsPerHost 2-vCPU VMs of memGB each, and the first evacuate hosts
// draining. Each VM has its own diurnal trace (hourly samples), whose
// trough is drawn from ±40% around base cores and whose peak is half a
// core higher, so the evacuees' forecasts are distinct, as in
// hyper -quick, and the packing order is not VM-ID order.
type drainShape struct {
	hosts, vmsPerHost, evacuate int
	memGB, base                 float64
}

// drainReplanFixture builds a fleet with a drain in progress: the
// first evacuate hosts enter maintenance, each such entry starts what
// migrations the slots admit, and continueMoves then runs until it
// starts nothing more. From there on every continueMoves call re-plans
// the whole drain and has each planned move refused — the regime of
// the completion path, which sees hundreds of refusals per move it
// starts.
func drainReplanFixture(tb testing.TB, s drainShape) *Manager {
	tb.Helper()
	eng := sim.NewEngine(1)
	cl, err := cluster.New(eng, cluster.Config{})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < s.hosts; i++ {
		if _, err := cl.AddHost(host.Config{Cores: 16, MemoryGB: 256}); err != nil {
			tb.Fatal(err)
		}
	}
	rng := sim.NewRNG(1)
	for i := 0; i < s.hosts*s.vmsPerHost; i++ {
		base := s.base * rng.Range(0.6, 1.4)
		tr := workload.Diurnal(rng.Fork(), workload.DiurnalSpec{Interval: time.Hour, BaseCores: base, PeakCores: base + 0.5})
		cfg := vm.Config{VCPUs: 2, MemoryGB: s.memGB, Trace: tr}
		if i%8 == 0 {
			// Distinct groups among each host's residents (host IDs
			// repeat every s.hosts VMs), shared across hosts.
			cfg.Group = fmt.Sprintf("g%d", i%53)
		}
		if _, err := cl.AddVM(cfg, host.ID(i%s.hosts+1)); err != nil {
			tb.Fatal(err)
		}
	}
	m, err := NewManager(cl, Config{Policy: DPMS3})
	if err != nil {
		tb.Fatal(err)
	}
	cl.Start()
	m.Start()
	eng.RunUntil(time.Minute)
	for i := 1; i <= s.evacuate; i++ {
		if err := m.EnterMaintenance(host.ID(i)); err != nil {
			tb.Fatal(err)
		}
	}
	for {
		started := m.stats.MigrationsConsolidation
		m.continueMoves()
		if m.stats.MigrationsConsolidation == started {
			break
		}
	}
	if m.cl.Migrations().Inflight() == 0 || m.evacuating.len() == 0 {
		tb.Fatal("fixture has no drain in progress")
	}
	return m
}

// TestDrainReplanSteadyStateAllocFree pins the completion path's
// contract: with a drain in progress, a warmed-up continueMoves —
// forecasts, census, bins, evacuee order, packing, every refused
// StartMigration, the park scan and the load-balancing pass —
// allocates nothing.
func TestDrainReplanSteadyStateAllocFree(t *testing.T) {
	m := drainReplanFixture(t, drainShape{hosts: 64, vmsPerHost: 16, evacuate: 8, memGB: 8, base: 0.1})
	failed := m.stats.MigrationsFailed
	m.continueMoves()
	if m.stats.MigrationsFailed == failed {
		t.Fatal("continueMoves planned no refused moves; the fixture does not exercise rejections")
	}
	if allocs := testing.AllocsPerRun(50, m.continueMoves); allocs != 0 {
		t.Fatalf("drain replan allocates: %v allocs/op, want 0", allocs)
	}
}

// TestDrainRefusalsWithoutFreeSlot pins the refusal shortcuts in
// drainEvacuating: a source whose migration slots are all taken counts
// one refusal per planned evacuee, as a whole segment when no VM is on
// migration backoff and one VM at a time when some VM is, and counts
// nothing once the per-step cap is reached; no move starts from it.
// Hosts 2 and 3 carry six VMs each and have all four slots taken by
// moves to hosts 4-8; host 1 carries two VMs and has free slots. Each
// case's counts are what the per-VM loop counts: it skips a held VM,
// refuses every other planned evacuee of a full source, and stops at
// the first eligible evacuee once the cap is reached.
func TestDrainRefusalsWithoutFreeSlot(t *testing.T) {
	for _, tc := range []struct {
		name              string
		evacuate          []host.ID
		maxPerStep        int
		hold              bool // put one eligible evacuee of host 2 on backoff
		wantFailed, wantN int  // refusals counted, moves started
	}{
		{"full-sources", []host.ID{2, 3}, 0, false, 4, 0},
		{"held-vm", []host.ID{2, 3}, 0, true, 3, 0},
		{"cap-reached", []host.ID{1, 2, 3}, 1, false, 0, 1},
		{"cap-not-reached", []host.ID{1, 2, 3}, 3, false, 4, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine(1)
			cl, err := cluster.New(eng, cluster.Config{})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 8; i++ {
				if _, err := cl.AddHost(host.Config{Cores: 16, MemoryGB: 256}); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 24; i++ {
				on := host.ID(i%8 + 1)
				if i >= 16 {
					on = host.ID(i%2 + 2)
				}
				if _, err := cl.AddVM(vm.Config{VCPUs: 2, MemoryGB: 8, Trace: workload.Constant(0.5)}, on); err != nil {
					t.Fatal(err)
				}
			}
			m, err := NewManager(cl, Config{Policy: DPMS3, MaxMigrationsPerStep: tc.maxPerStep})
			if err != nil {
				t.Fatal(err)
			}
			cl.Start()
			dst := 4
			for _, src := range []host.ID{2, 3} {
				h, _ := cl.Host(src)
				for _, vid := range h.VMs()[:4] {
					if err := cl.StartMigration(vid, host.ID(dst)); err != nil {
						t.Fatal(err)
					}
					dst = dst%5 + 4
				}
			}
			for _, id := range tc.evacuate {
				m.evacuating.add(id)
			}
			m.invalidate()
			if tc.hold {
				h, _ := cl.Host(2)
				m.migRetryAt[h.VMs()[4]] = eng.Now() + sim.Time(time.Hour)
			}
			m.noteInvocation()
			if !m.planDrain(m.forecasts(), m.takeCensus()) {
				t.Fatal("drain plan infeasible")
			}
			inflight := cl.Migrations().Inflight()
			m.drainEvacuating()
			if m.stats.MigrationsFailed != tc.wantFailed || m.stats.MigrationsConsolidation != tc.wantN {
				t.Fatalf("drain counted %d refusals and %d starts; want %d and %d",
					m.stats.MigrationsFailed, m.stats.MigrationsConsolidation, tc.wantFailed, tc.wantN)
			}
			if got := cl.Migrations().Inflight(); got != inflight+tc.wantN {
				t.Fatalf("%d migrations in flight after the drain, want %d", got, inflight+tc.wantN)
			}
		})
	}
}

// BenchmarkDrainReplan measures one completion replan (a warmed-up
// continueMoves with every planned move refused) on two drains of
// hyper -quick's size, 256 hosts and 4,096 VMs:
//
//   - wide: 32 hosts drain into the serving bins with room to spare, so
//     first-fit scans are short;
//   - hyper: shaped like hyper -quick's own drains, more hosts drain
//     into fewer serving bins near the packing target, so scans are
//     long;
//   - hyper-churn: the hyper drain with, before each op, what a
//     completion dirties: the dirty feed fires for one serving and one
//     evacuating host (a move's two endpoints), and one evacuee's
//     forecast moves by one ulp through the setter, so those rows are
//     recomputed and the replay re-places that evacuee. The evacuee
//     ends its run of equal forecasts in the packing order and moves
//     down and back, so the order holds, as it does in most real
//     replans;
//   - hyper-start: the hyper drain, where each op runs the world to the
//     next migration completion (see benchCompletions), so a
//     destination slot is free at each replan and the op starts moves.
//
// In wide and hyper nothing changes between replans, so every row is
// clean and the replay has no dirty bin.
func BenchmarkDrainReplan(b *testing.B) {
	hyper := drainShape{hosts: 256, vmsPerHost: 16, evacuate: 85, memGB: 4, base: 0.3}
	for _, bc := range []struct {
		name  string
		shape drainShape
		churn bool
		start bool // time completions, not bare replans
	}{
		{"wide", drainShape{hosts: 256, vmsPerHost: 16, evacuate: 32, memGB: 8, base: 0.1}, false, false},
		{"hyper", hyper, false, false},
		{"hyper-churn", hyper, true, false},
		{"hyper-start", hyper, false, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			if bc.start {
				benchCompletions(b, bc.shape)
				return
			}
			m := drainReplanFixture(b, bc.shape)
			c := m.takeCensus()
			serving := slices.Clone(c.serving)
			evacuating := slices.Clone(c.evacuating)
			var evacuees []vm.ID
			last := livePlan(&m.drain)
			for j := range last {
				if j == len(last)-1 || last[j+1].cpu < last[j].cpu {
					evacuees = append(evacuees, vm.ID(last[j].vm))
				}
			}
			base := slices.Clone(m.fcv)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if bc.churn {
					m.cl.HostChanged(serving[i%len(serving)].ID())
					m.cl.HostChanged(evacuating[i%len(evacuating)].ID())
					id := evacuees[i%len(evacuees)]
					fc := base[id-1]
					if m.fcv[id-1] == fc {
						fc = math.Nextafter(fc, math.Inf(-1))
					}
					m.setForecast(id, fc)
				}
				m.continueMoves()
			}
		})
	}
}

// benchCompletions times migration completions on a drain of the
// given shape: each op runs the world to the earliest in-flight
// migration's end and stops after that one completion, whose replan
// (the manager's completion hook, continueMoves) starts the moves the
// freed slots admit. The op is what a completion costs: the cluster
// commits the move and evaluates, and the replan plans and starts. The
// fixture's own moves all end at one instant, and the first of them
// land on hosts that have since entered maintenance, so each adds an
// evacuee; set-up runs the world past that instant, off the clock, and
// the fixture is rebuilt the same way every 256 ops, before its drain
// thins out.
func benchCompletions(b *testing.B, shape drainShape) {
	var m *Manager
	setup := func() {
		m = drainReplanFixture(b, shape)
		cl, eng := m.cl, m.cl.Engine()
		cl.OnMigrationDone(func(vm.ID, host.ID) {
			m.continueMoves()
			eng.Stop()
		})
		for first := nextMigrationEnd(cl); nextMigrationEnd(cl) == first; {
			eng.RunUntil(first)
		}
	}
	setup()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		end := nextMigrationEnd(m.cl)
		if end < 0 || i > 0 && i%256 == 0 {
			b.StopTimer()
			setup()
			end = nextMigrationEnd(m.cl)
			b.StartTimer()
		}
		m.cl.Engine().RunUntil(end)
	}
}

// nextMigrationEnd returns the earliest end of an in-flight migration,
// or -1 when none is in flight.
func nextMigrationEnd(cl *cluster.Cluster) sim.Time {
	var end sim.Time = -1
	for _, mig := range cl.Migrations().Inflights() {
		if end < 0 || mig.End < end {
			end = mig.End
		}
	}
	return end
}
