// Incremental planning-input maintenance: the machinery that lets the
// manager's per-step cost scale with fleet churn instead of fleet
// size.
//
// The manager's decisions are pure functions of (cluster state, the
// manager's own intent sets, liveness). Everything here caches those
// pure intermediates — the census, the total forecast, per-host
// forecast loads, inbound memory, and the packing plan — keyed by two
// generation counters:
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
// advance, so VMs sit in a due-heap and are caught up — bitwise
// exactly, see ensureForecasts — only when such a deadline passes.
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

// fcDue is one entry in the forecast due-heap: the earliest moment vid
// must be re-observed.
type fcDue struct {
	key sim.Time
	vid vm.ID
}

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

// dueKeyFor computes the next moment v's forecast can change: its next
// demand-trace change, or — for the peak-window forecaster — the
// moment the deque head expires (head.at+window+1ns, since the eager
// cut condition is the strict head.at+window < now). With fewer than
// two samples an expiry cannot change the forecast (the monotonic
// deque would re-admit the same value), so only the demand change
// counts then.
func (m *Manager) dueKeyFor(v *vm.VM, f Forecaster, now sim.Time) sim.Time {
	key := v.NextDemandChange(now)
	if pw, ok := f.(*peakWindow); ok {
		if exp, due := pw.nextExpiry(); due {
			if k := exp + 1; k < key {
				key = k
			}
		}
	}
	return key
}

// pushDue inserts a due-heap entry. A VM is in the heap iff it has a
// finite deadline; keys are immutable while queued (the deque only
// changes when the VM is processed, and the demand trace is fixed), so
// no decrease-key is ever needed.
func (m *Manager) pushDue(key sim.Time, vid vm.ID) {
	if key == neverDue {
		return
	}
	m.due = append(m.due, fcDue{key: key, vid: vid})
	i := len(m.due) - 1
	for i > 0 {
		p := (i - 1) / 2
		if m.due[p].key <= m.due[i].key {
			break
		}
		m.due[p], m.due[i] = m.due[i], m.due[p]
		i = p
	}
}

// popDue removes and returns the minimum-key entry.
func (m *Manager) popDue() fcDue {
	d := m.due[0]
	last := len(m.due) - 1
	m.due[0] = m.due[last]
	m.due = m.due[:last]
	i := 0
	for {
		l, r, s := 2*i+1, 2*i+2, i
		if l < len(m.due) && m.due[l].key < m.due[s].key {
			s = l
		}
		if r < len(m.due) && m.due[r].key < m.due[s].key {
			s = r
		}
		if s == i {
			break
		}
		m.due[i], m.due[s] = m.due[s], m.due[i]
		i = s
	}
	return d
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
		for id := m.maxInit + 1; id <= m.cl.MaxVMID(); id++ {
			v, ok := m.cl.VM(id)
			if !ok {
				continue // created and departed between invocations
			}
			i := id - 1
			f := m.newForecaster()
			m.fcs[i] = f
			f.Observe(now, m.cl.VMDemand(v, now))
			fc := f.Forecast()
			if fc > v.VCPUs() {
				fc = v.VCPUs()
			}
			m.fcv[i] = fc
			m.lastObs[i] = now
			m.pushDue(m.dueKeyFor(v, f, now), id)
		}
		m.maxInit = m.cl.MaxVMID()
	}
	// Catch up every VM whose deadline passed.
	for len(m.due) > 0 && m.due[0].key <= now {
		d := m.popDue()
		v, ok := m.cl.VM(d.vid)
		if !ok {
			continue // departed while queued; drop the stale entry
		}
		i := d.vid - 1
		f := m.fcs[i]
		if m.invPrev > m.lastObs[i] {
			f.Observe(m.invPrev, m.cl.VMDemand(v, m.invPrev))
		}
		f.Observe(now, m.cl.VMDemand(v, now))
		m.lastObs[i] = now
		fc := f.Forecast()
		if fc > v.VCPUs() {
			fc = v.VCPUs()
		}
		if fc != m.fcv[i] {
			m.fcv[i] = fc
			m.fcEpoch++
		}
		m.pushDue(m.dueKeyFor(v, f, now), d.vid)
	}
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
		if fc != m.fcv[i] {
			m.fcv[i] = fc
			m.fcEpoch++
		}
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
