// Incremental planning-input maintenance: the machinery that lets the
// manager's per-step cost scale with fleet churn instead of fleet
// size.
//
// The manager's decisions are pure functions of (cluster state, the
// manager's own intent sets, liveness). Everything here caches those
// pure intermediates — the census, the total forecast, inbound memory,
// and the packing plan — keyed by two generation counters (per-host
// forecast loads and the drain plan's inputs are per-host rows
// instead, see rows.go):
//
//   - epoch   bumps on every event that can change a planning input:
//     the cluster's dirty-host feed (placements, migrations, crashes,
//     power transitions, settles, DVFS), the manager's own writes to
//     its evacuating/maintenance sets, control-plane command results
//     and liveness transitions, and command sends whose effects the
//     cluster cannot see yet.
//   - fcEpoch bumps whenever any VM's clamped forecast value changes
//     bitwise, or the VM set itself changes (arrivals, departures).
//
// A cached value is reused only when its keys are exactly the current
// counters — i.e. when its inputs are provably bitwise-unchanged since
// it was computed. Any change, however small, forces a full identical
// recompute. That is the soundness argument for byte-identity: the
// incremental manager never *delta-updates* a float aggregate (which
// would reorder floating-point sums) and never reuses a plan across a
// real change (a fresh MinBins could legitimately return a different
// prefix). Reuse happens only at zero relevant dirt. The planner
// parity tests hold every intermediate against the full-scan oracle
// (newManager with incremental off), and the goldens pin the reports.
//
// Forecast maintenance is the one place a cheap recompute does not
// exist — the eager path calls Observe on every VM at every manager
// invocation. For the peak-window and last-value forecasters the
// observation stream is reconstructible lazily: a VM's forecast can
// only change when its demand trace changes value or when the deque
// head falls out of the window. Both moments are computable in
// advance, so each VM's deadline sits in a due index and the VM is
// caught up — bitwise exactly, see ensureForecasts — only when its
// deadline passes. The index is swept in VM-ID order, and the demand
// reads go through the cluster's demand memo, which the evaluation
// tick has usually filled at the same instant.
// EWMA forecasters evolve on every observation and the diurnal model
// needs the full demand sum every invocation, so those configurations
// fall back to the eager sweep (correct, just not cheap), still with
// epoch-keyed caches on top.
package core

import (
	"fmt"
	"math"

	"agilepower/internal/sim"
	"agilepower/internal/vm"
)

// neverDue mirrors workload.Never: a due key meaning "no deadline".
const neverDue = sim.Time(math.MaxInt64)

// invalidate marks every epoch-keyed cache stale. Called on any
// manager-side event the cluster's dirty feed cannot see (intent-set
// writes, command sends, liveness transitions). Over-invalidation is
// always sound — it only costs a recompute — so borderline sites call
// this unconditionally.
func (m *Manager) invalidate() { m.epoch++ }

// growVMSlots extends the dense per-VM state (indexed vm.ID-1) to the
// cluster's ID high-water mark. VM IDs are monotonic and never reused;
// slots of departed VMs go stale but are never read, since every
// consumer iterates live-VM lists.
func (m *Manager) growVMSlots() {
	n := int(m.cl.MaxVMID())
	if len(m.fcv) >= n {
		return
	}
	m.fcs = append(m.fcs, make([]Forecaster, n-len(m.fcs))...)
	m.fcv = append(m.fcv, make([]float64, n-len(m.fcv))...)
	m.fcSeenB = append(m.fcSeenB, make([]bool, n-len(m.fcSeenB))...)
	m.lastObs = append(m.lastObs, make([]sim.Time, n-len(m.lastObs))...)
}

// growHostSlots extends the dense per-host state (indexed host.ID-1).
// Hosts are never removed, so len(cl.Hosts()) is the ID high-water
// mark.
func (m *Manager) growHostSlots() {
	n := len(m.cl.Hosts())
	if len(m.loads) >= n {
		return
	}
	m.loads = append(m.loads, make([]float64, n-len(m.loads))...)
	m.inbound = append(m.inbound, make([]float64, n-len(m.inbound))...)
	m.sortLoads = append(m.sortLoads, make([]float64, n-len(m.sortLoads))...)
	m.binOf = append(m.binOf, make([]int32, n-len(m.binOf))...)
	m.binInCPU = append(m.binInCPU, make([]float64, n-len(m.binInCPU))...)
	m.binInMem = append(m.binInMem, make([]float64, n-len(m.binInMem))...)
}

// newForecaster builds one forecaster from the validated spec.
func (m *Manager) newForecaster() Forecaster {
	f, err := m.cfg.Forecast.New()
	if err != nil {
		// Config was validated at construction; a failure here is a
		// programming error.
		panic(fmt.Sprintf("core: forecaster construction: %v", err))
	}
	return f
}

// dueKey returns the next moment a VM's forecast can change, given
// its demand trace's next change: that change, or — for the
// peak-window forecaster — the moment the deque head expires
// (head.at+window+1ns, since the eager cut condition is the strict
// head.at+window < now). With fewer than two samples an expiry cannot
// change the forecast (the monotonic deque would re-admit the same
// value), so only the demand change counts then.
func dueKey(f Forecaster, next sim.Time) sim.Time {
	if pw, ok := f.(*peakWindow); ok {
		if exp, due := pw.nextExpiry(); due {
			if k := exp + 1; k < next {
				return k
			}
		}
	}
	return next
}

// dueFanout is the branching factor of the due index's summary tree.
const dueFanout = 64

// dueIndex holds one due time per VM (indexed vm.ID-1; neverDue when
// the VM has none) under a tree of minima: lv[0] holds the due times,
// lv[k][j] is the minimum of lv[k-1][64j : 64j+64], and the top level
// has a single entry. A sweep descends only into blocks whose minimum
// has passed, so it visits exactly the due entries, in ascending index
// order, scanning one 64-entry block for each block it enters.
type dueIndex struct {
	lv [][]sim.Time
}

// grow extends the index to n entries, the new ones never due.
func (d *dueIndex) grow(n int) {
	if d.lv == nil {
		d.lv = [][]sim.Time{nil}
	}
	for k := 0; k < len(d.lv); k++ {
		for len(d.lv[k]) < n {
			d.lv[k] = append(d.lv[k], neverDue)
		}
		if k == len(d.lv)-1 && len(d.lv[k]) > 1 {
			// The old top has siblings now: put a root over it. Every
			// entry but the old top's first is new, so never due.
			d.lv = append(d.lv, []sim.Time{d.lv[k][0]})
		}
		n = (n + dueFanout - 1) / dueFanout
	}
}

// add gives entry i, which must not be due yet (neverDue), the due
// time key.
func (d *dueIndex) add(i int, key sim.Time) {
	for k := range d.lv {
		if d.lv[k][i] <= key {
			return
		}
		d.lv[k][i] = key
		i /= dueFanout
	}
}

// dueVisitor processes one due entry and returns its next due time,
// which must lie after the sweep's now (neverDue drops the entry).
type dueVisitor interface {
	visitDue(i int, now sim.Time) sim.Time
}

// sweep hands every entry whose due time is at or before now to v,
// once each, in ascending index order, and stores the due times v
// returns.
func (d *dueIndex) sweep(now sim.Time, v dueVisitor) {
	top := len(d.lv) - 1
	if top < 0 || len(d.lv[top]) == 0 || d.lv[top][0] > now {
		return
	}
	d.lv[top][0] = d.sweepEntry(top, 0, now, v)
}

// sweepEntry sweeps the due entries under entry j of level k and
// returns their new minimum.
func (d *dueIndex) sweepEntry(k, j int, now sim.Time, v dueVisitor) sim.Time {
	if k == 0 {
		return v.visitDue(j, now)
	}
	below := d.lv[k-1]
	lo := j * dueFanout
	hi := min(lo+dueFanout, len(below))
	least := neverDue
	for c := lo; c < hi; c++ {
		if below[c] <= now {
			below[c] = d.sweepEntry(k-1, c, now, v)
		}
		least = min(least, below[c])
	}
	return least
}

// ensureForecasts is the lazy replacement for the eager per-VM Observe
// sweep. It reproduces the eager forecaster state bitwise:
//
// Between two processings of a VM, its demand is constant (a change
// would have been a deadline) and no deque head expired (ditto), so
// every eager Observe in that span only refreshed the same-value tail
// — of which only the last survives in the deque. Replaying exactly
// two observations therefore lands in the identical state: one at
// invPrev (the last manager invocation before now, recreating the
// final tail refresh) and one at now (the observation the eager sweep
// would make this invocation). Both are idempotent when times
// coincide, and the catch-up is skipped when the VM was already
// observed at or after invPrev.
func (m *Manager) ensureForecasts(now sim.Time) {
	// Fleet membership moved: initialize newcomers (their first eager
	// observation would happen this invocation too) and bump fcEpoch —
	// totals and plans iterate the VM list, so set changes invalidate
	// them even when no forecast value moved.
	if ve := m.cl.VMEpoch(); ve != m.vmSeen {
		m.vmSeen = ve
		m.fcEpoch++
		m.growVMSlots()
		m.due.grow(int(m.cl.MaxVMID()))
		for id := m.maxInit + 1; id <= m.cl.MaxVMID(); id++ {
			v, ok := m.cl.VM(id)
			if !ok {
				continue // created and departed between invocations
			}
			i := id - 1
			f := m.newForecaster()
			m.fcs[i] = f
			d, next := m.cl.VMDemandNext(v, now)
			f.Observe(now, d)
			fc := f.Forecast()
			if fc > v.VCPUs() {
				fc = v.VCPUs()
			}
			m.setForecast(id, fc)
			m.lastObs[i] = now
			m.due.add(int(i), dueKey(f, next))
		}
		m.maxInit = m.cl.MaxVMID()
	}
	// Catch up every VM whose deadline passed.
	m.due.sweep(now, m)
}

// visitDue catches up VM index i, whose deadline passed, and returns
// its next one (see ensureForecasts).
func (m *Manager) visitDue(i int, now sim.Time) sim.Time {
	v, ok := m.cl.VM(vm.ID(i + 1))
	if !ok {
		return neverDue // departed while queued; drop the stale entry
	}
	f := m.fcs[i]
	if m.invPrev > m.lastObs[i] {
		f.Observe(m.invPrev, m.cl.VMDemand(v, m.invPrev))
	}
	d, next := m.cl.VMDemandNext(v, now)
	f.Observe(now, d)
	m.lastObs[i] = now
	fc := f.Forecast()
	if fc > v.VCPUs() {
		fc = v.VCPUs()
	}
	m.setForecast(vm.ID(i+1), fc)
	return dueKey(f, next)
}

// eagerObserve is the full per-VM sweep: every live VM is observed at
// now and its clamped forecast recorded. Used by the full-scan mode
// and by incremental configurations whose forecaster cannot be
// maintained lazily (EWMA, predictive wake). Departed VMs' forecasters
// and migration bookkeeping are pruned, exactly as the pre-incremental
// manager did (the pruning is memory-only: IDs are never reused, so a
// stale entry could never be read).
func (m *Manager) eagerObserve(now sim.Time) {
	m.growVMSlots()
	seen := m.fcSeenB
	for i := range seen {
		seen[i] = false
	}
	for _, v := range m.cl.VMs() {
		i := v.ID() - 1
		f := m.fcs[i]
		if f == nil {
			f = m.newForecaster()
			m.fcs[i] = f
		}
		f.Observe(now, m.cl.VMDemand(v, now))
		fc := f.Forecast()
		// Never forecast below the VM's cap nor above it.
		if fc > v.VCPUs() {
			fc = v.VCPUs()
		}
		m.setForecast(v.ID(), fc)
		seen[i] = true
	}
	if ve := m.cl.VMEpoch(); ve != m.vmSeen {
		m.vmSeen = ve
		m.fcEpoch++
	}
	// Drop forecasters (and robustness bookkeeping) of departed VMs.
	for i := range m.fcs {
		if m.fcs[i] != nil && !seen[i] {
			m.fcs[i] = nil
			delete(m.migFails, vm.ID(i+1))
			delete(m.migRetryAt, vm.ID(i+1))
		}
	}
	if m.diurnal != nil {
		total := 0.0
		for _, v := range m.cl.VMs() {
			total += m.cl.VMDemand(v, now)
		}
		m.diurnal.Observe(now, total)
	}
}
