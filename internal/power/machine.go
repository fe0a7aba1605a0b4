package power

import (
	"errors"
	"fmt"
	"time"

	"agilepower/internal/sim"
)

// Transition errors returned by Machine.
var (
	// ErrBusy — a transition is already in flight. Real platforms
	// cannot abort a suspend or boot halfway; callers must wait for the
	// completion callback.
	ErrBusy = errors.New("power: transition in progress")
	// ErrUnsupported — the profile has no spec for the requested state.
	ErrUnsupported = errors.New("power: state not supported by profile")
	// ErrNotOn — sleep was requested while not in S0, or wake while
	// already on.
	ErrNotOn = errors.New("power: invalid state for request")
)

// Stats are cumulative counters a Machine maintains for reporting. The
// per-state counters are arrays indexed by State, so a Stats value
// copies by value.
type Stats struct {
	Energy      Joules                   // total energy consumed
	TimeIn      [NumStates]time.Duration // settled time per state
	TransitTime time.Duration            // time spent transitioning
	Entries     [NumStates]int           // sleep entries per state
	Exits       [NumStates]int           // sleep exits per state
	TransitionE Joules                   // energy spent in transitions
	// ResumeFailures counts S3 resumes that failed and fell back to a
	// full boot.
	ResumeFailures int
	// SuspendFailures counts injected sleep entries that did not take:
	// the machine spent the entry latency and settled back in S0.
	SuspendFailures int
	// WakeFailures counts injected sleep exits that did not take: the
	// machine spent the exit latency and settled back asleep.
	WakeFailures int
	// Crashes counts transient host crashes (power lost, then a repair
	// delay back to S0).
	Crashes int
}

// Machine is the power state machine of one server, driven by the
// simulation engine. It integrates energy exactly: every change of
// utilization or state accrues the interval since the previous change
// at the previous draw.
type Machine struct {
	eng     *sim.Engine
	profile *Profile

	state State
	phase Phase
	// target is the state being entered/exited toward while phase is
	// not Settled.
	target State
	// doneAt is when the in-flight transition completes.
	doneAt sim.Time

	util        float64
	freq        float64
	lastAccrual sim.Time
	stats       Stats

	// faults, when non-nil, is consulted on every admitted transition.
	// Nil (the default) is fully dormant.
	faults FaultInjector
	// crashed is true from Crash until the repair completes; it lets
	// invariant checks distinguish a crashed host (which may hold VMs
	// while unavailable) from a managed transition (which may not).
	crashed bool

	// onSettled, when non-nil, runs after every completed transition
	// with the newly settled state.
	onSettled func(State)
	// settleListener is the closure-free registration variant: one
	// shared listener value serves any number of machines, so binding a
	// fleet allocates nothing (see OnSettledListener).
	settleListener SettleListener
}

// SettleListener receives completed-transition notifications. It is
// the allocation-free alternative to an OnSettled closure: a pointer
// converts to this interface without heap allocation, so one listener
// can be registered on every machine of a fleet for free.
type SettleListener interface {
	MachineSettled(st State)
}

// NewMachine returns a machine settled in S0 at zero utilization.
func NewMachine(eng *sim.Engine, profile *Profile) (*Machine, error) {
	if err := profile.Validate(); err != nil {
		return nil, err
	}
	return &Machine{
		eng:         eng,
		profile:     profile,
		state:       S0,
		phase:       Settled,
		freq:        1,
		lastAccrual: eng.Now(),
	}, nil
}

// CloneInto copies this machine's settled state into dst, attached to
// eng. The profile pointer is shared (profiles are immutable once a
// machine holds them); the stats copy by value. The fault
// injector and OnSettled callback/listener are not carried over — they
// bind to the owning cluster and must be re-registered by the caller. Cloning
// a machine with a transition in flight fails: the pending settle
// event lives in the old engine and cannot be transplanted.
func (m *Machine) CloneInto(dst *Machine, eng *sim.Engine) error {
	if m.phase != Settled {
		return fmt.Errorf("power: cannot clone machine mid-transition (%v→%v)", m.state, m.target)
	}
	*dst = Machine{
		eng:         eng,
		profile:     m.profile,
		state:       m.state,
		phase:       m.phase,
		target:      m.target,
		doneAt:      m.doneAt,
		util:        m.util,
		freq:        m.freq,
		lastAccrual: m.lastAccrual,
		stats:       m.stats,
	}
	return nil
}

// Profile returns the machine's calibration.
func (m *Machine) Profile() *Profile { return m.profile }

// State returns the settled state (or, during a transition, the state
// being left).
func (m *Machine) State() State { return m.state }

// Phase returns whether the machine is settled or transitioning.
func (m *Machine) Phase() Phase { return m.phase }

// Target returns the destination of an in-flight transition; it is
// meaningful only when Phase() != Settled.
func (m *Machine) Target() State { return m.target }

// TransitionEnd returns when the in-flight transition completes; it is
// meaningful only when Phase() != Settled.
func (m *Machine) TransitionEnd() sim.Time { return m.doneAt }

// Available reports whether the server can run VM load right now.
func (m *Machine) Available() bool { return m.state == S0 && m.phase == Settled }

// OnSettled registers fn to run after every completed transition.
func (m *Machine) OnSettled(fn func(State)) { m.onSettled = fn }

// OnSettledListener registers l to be notified after every completed
// transition, alongside any OnSettled callback. One observer only.
func (m *Machine) OnSettledListener(l SettleListener) { m.settleListener = l }

// SetFaultInjector installs a transition fault injector (nil disables
// injection entirely — the default).
func (m *Machine) SetFaultInjector(f FaultInjector) { m.faults = f }

// Crashed reports whether the machine is currently down due to a crash
// (between Crash and the completed repair).
func (m *Machine) Crashed() bool { return m.crashed }

// Power returns the instantaneous draw.
func (m *Machine) Power() Watts {
	switch m.phase {
	case Entering:
		return m.profile.Sleep[m.target].EntryPower
	case Exiting:
		return m.profile.Sleep[m.state].ExitPower
	}
	if m.state == S0 {
		return m.profile.ActivePowerAtFreq(m.util, m.freq)
	}
	return m.profile.Sleep[m.state].Power
}

// Frequency returns the current DVFS frequency factor (1 when DVFS is
// unused).
func (m *Machine) Frequency() float64 { return m.freq }

// SetFrequency changes the DVFS operating point, accruing energy for
// the elapsed interval first. It fails when the profile has no DVFS
// range or f is outside [FreqMin, 1].
func (m *Machine) SetFrequency(f float64) error {
	if m.profile.FreqMin <= 0 {
		return fmt.Errorf("power: profile %q has no DVFS range", m.profile.Name)
	}
	if f < m.profile.FreqMin || f > 1 {
		return fmt.Errorf("power: frequency %v outside [%v, 1]", f, m.profile.FreqMin)
	}
	if f == m.freq {
		// No-op: the draw is unchanged, so energy keeps integrating
		// analytically from the last real change. Coalescing here keeps
		// the accrual sequence — and therefore every FP result —
		// identical whether callers poll every tick or only on change.
		return nil
	}
	m.accrue()
	m.freq = f
	return nil
}

// Utilization returns the current CPU utilization signal in [0,1].
func (m *Machine) Utilization() float64 { return m.util }

// SetUtilization updates the CPU utilization signal, accruing energy
// for the elapsed interval first. Utilization on a sleeping or
// transitioning machine is forced to zero.
func (m *Machine) SetUtilization(u float64) {
	if u < 0 {
		u = 0
	}
	if u > 1 {
		u = 1
	}
	if !m.Available() {
		u = 0
	}
	if u == m.util {
		// No-op: see SetFrequency. An unchanged utilization must not
		// split the accrual interval, so that a full-scan tick (which
		// calls this every step) and delta evaluation (which only calls
		// it when demand moved) produce bitwise-identical energy.
		return
	}
	m.accrue()
	m.util = u
}

// accrue charges the interval since the last accrual at the current
// draw and attributes settled/transition time.
func (m *Machine) accrue() {
	now := m.eng.Now()
	dt := now - m.lastAccrual
	if dt <= 0 {
		return
	}
	e := WattSeconds(m.Power(), dt)
	m.stats.Energy += e
	if m.phase == Settled {
		m.stats.TimeIn[m.state] += dt
	} else {
		m.stats.TransitTime += dt
		m.stats.TransitionE += e
	}
	m.lastAccrual = now
}

// Sleep starts a transition from S0 into the given sleep state. The
// machine becomes unavailable immediately; after the state's entry
// latency it settles and the OnSettled callback fires.
func (m *Machine) Sleep(st State) error {
	if !st.IsSleep() {
		return fmt.Errorf("%w: %v", ErrNotOn, st)
	}
	if _, ok := m.profile.Sleep[st]; !ok {
		return fmt.Errorf("%w: %v", ErrUnsupported, st)
	}
	if m.phase != Settled {
		return ErrBusy
	}
	if m.state != S0 {
		return fmt.Errorf("%w: sleep from %v", ErrNotOn, m.state)
	}
	m.accrue()
	m.util = 0
	m.phase = Entering
	m.target = st
	spec := m.profile.Sleep[st]
	latency := spec.EntryLatency
	settleIn := st
	if m.faults != nil {
		f := m.faults.SleepFault(st)
		if f.Extra > 0 {
			latency += f.Extra
		}
		if f.Fail {
			// The suspend does not take: the machine burns the entry
			// latency and comes back up running.
			settleIn = S0
			m.stats.SuspendFailures++
		}
	}
	m.doneAt = m.eng.Now() + latency
	m.stats.Entries[st]++
	m.eng.ScheduleFunc(m.doneAt, func() { m.settle(settleIn) })
	return nil
}

// Wake starts a transition from the current sleep state back to S0.
// After the state's exit latency the machine settles in S0.
func (m *Machine) Wake() error {
	if m.phase != Settled {
		return ErrBusy
	}
	if !m.state.IsSleep() {
		return fmt.Errorf("%w: wake from %v", ErrNotOn, m.state)
	}
	m.accrue()
	from := m.state
	m.phase = Exiting
	m.target = S0
	spec := m.profile.Sleep[from]
	exit := spec.ExitLatency
	// A failed S3 resume falls back to a power cycle plus full boot:
	// the S5 exit path (or 10x the S3 exit when the profile has no S5
	// calibration).
	if from == S3 && m.eng.RNG().Bernoulli(m.profile.ResumeFailProb) {
		if s5, ok := m.profile.Sleep[S5]; ok {
			exit += s5.ExitLatency
		} else {
			exit += 9 * spec.ExitLatency
		}
		m.stats.ResumeFailures++
	}
	settleIn := S0
	if m.faults != nil {
		f := m.faults.WakeFault(from)
		if f.Extra > 0 {
			exit += f.Extra
		}
		if f.Fail {
			// The resume does not take at all: the machine burns the
			// exit latency and falls back asleep. Callers retry.
			settleIn = from
			m.stats.WakeFailures++
		}
	}
	m.doneAt = m.eng.Now() + exit
	m.stats.Exits[from]++
	m.eng.ScheduleFunc(m.doneAt, func() { m.settle(settleIn) })
	return nil
}

// Crash takes an available machine down instantly — power is lost (the
// settled S5 draw, effectively off) — and schedules the repair: after
// the given delay the machine boots back to S0 and OnSettled fires.
// During the repair the machine draws the S5 exit (boot) power when the
// profile has an S5 calibration, and nothing otherwise. Crashing a
// machine that is asleep or mid-transition is rejected: parked servers
// have no workload to lose and transitions cannot be preempted.
func (m *Machine) Crash(repair time.Duration) error {
	if repair < 0 {
		return fmt.Errorf("power: negative repair delay %v", repair)
	}
	if !m.Available() {
		return fmt.Errorf("%w: crash while %v/%v", ErrNotOn, m.state, m.phase)
	}
	m.accrue()
	m.util = 0
	m.state = S5
	m.phase = Exiting
	m.target = S0
	m.crashed = true
	m.doneAt = m.eng.Now() + repair
	m.stats.Crashes++
	m.eng.ScheduleFunc(m.doneAt, func() { m.settle(S0) })
	return nil
}

// settle completes the in-flight transition.
func (m *Machine) settle(st State) {
	m.accrue()
	m.state = st
	m.phase = Settled
	m.crashed = false
	if m.onSettled != nil {
		m.onSettled(st)
	}
	if m.settleListener != nil {
		m.settleListener.MachineSettled(st)
	}
}

// Stats returns a snapshot of the cumulative counters, accrued up to
// the current virtual time.
func (m *Machine) Stats() Stats {
	m.accrue()
	return m.stats
}

// Energy returns total energy consumed up to the current virtual time.
func (m *Machine) Energy() Joules {
	m.accrue()
	return m.stats.Energy
}
