// Package script defines the scenario event DSL and assertion
// grammar: timed operator/chaos actions ("at 2h, crash host-17") and
// run predicates ("power stays below 90 kW") that scenario files and
// the chaos pattern generators both compile down to. The types here
// are pure data plus validation — the session layer schedules events
// on the engine and evaluates assertions against cluster telemetry,
// and internal/chaos emits event scripts from named patterns — so the
// package depends on nothing but the standard library and can be
// imported from every layer without cycles.
//
// Determinism rules: an event script is applied by scheduling one
// engine event per entry at its At offset, so two runs of the same
// (scenario, script, seed) are byte-identical; an empty script
// schedules nothing and leaves the run byte-identical to a script-free
// build (dormancy-by-construction). Events that need a seed-driven
// subsystem (fault-rate, wake-fail need the fault injector;
// ctrl-degrade, ctrl-partition need the control plane) statically
// require the scenario to enable that subsystem, so the script layer
// never constructs one — the dormancy contracts of internal/faults and
// internal/ctrlplane stay intact.
package script

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Actions an event script can perform.
const (
	// ActionCrash crashes the target host(s); VMs freeze in place until
	// the repair completes (Repair, default 10 minutes).
	ActionCrash = "crash"
	// ActionMaintenance drains the target host(s) and holds them out of
	// service; ActionMaintenanceEnd returns them.
	ActionMaintenance    = "maintenance"
	ActionMaintenanceEnd = "maintenance-end"
	// ActionPowerCap caps the manager's active-host budget to Watts
	// (0 removes the cap) — the power-feed emergency knob.
	ActionPowerCap = "power-cap"
	// ActionDemandSurge multiplies demand of every VM whose name starts
	// with Fleet ("" = all VMs) by Factor; a positive Duration restores
	// ×1 afterwards.
	ActionDemandSurge = "demand-surge"
	// ActionFaultRate retunes the fault injector to the standard preset
	// at Rate; a positive Duration restores the scenario's base config.
	ActionFaultRate = "fault-rate"
	// ActionWakeFail sets only the wake-failure probability to Prob
	// (flaky-resume bursts); a positive Duration restores the base.
	ActionWakeFail = "wake-fail"
	// ActionCtrlDegrade sets the control plane's delay/jitter/loss to a
	// Preset-shaped mix of Delay and Loss; a positive Duration restores
	// the scenario's base impairment.
	ActionCtrlDegrade = "ctrl-degrade"
	// ActionCtrlPartition drops every command and report leg for
	// Duration (required), then restores the base impairment.
	ActionCtrlPartition = "ctrl-partition"
)

// Event is one timed action in a scenario's event script. Which fields
// matter depends on Action; Validate rejects combinations that make no
// sense. Host ranges are 1-based and inclusive: Host alone targets one
// host, Host..HostTo a contiguous range.
type Event struct {
	// At is the action's offset from the start of the run.
	At time.Duration
	// Action selects what happens (one of the Action* constants).
	Action string

	// Host and HostTo target crash/maintenance actions (HostTo 0 means
	// just Host).
	Host   int
	HostTo int
	// Repair is the crash repair delay (default 10 minutes).
	Repair time.Duration

	// Duration bounds reversible actions (surge, fault retune,
	// degrade, partition): the pre-event state is restored at
	// At+Duration. Zero means the change persists (except partition,
	// which requires a duration).
	Duration time.Duration

	// Factor and Fleet parameterize demand-surge.
	Factor float64
	Fleet  string

	// Watts parameterizes power-cap (0 = uncap).
	Watts float64

	// Rate parameterizes fault-rate, Prob wake-fail.
	Rate float64
	Prob float64

	// Delay and Loss parameterize ctrl-degrade.
	Delay time.Duration
	Loss  float64
}

// hostRange returns the event's normalized inclusive host range.
func (e Event) hostRange() (lo, hi int) {
	lo, hi = e.Host, e.HostTo
	if hi == 0 {
		hi = lo
	}
	return lo, hi
}

// HostLo and HostHi expose the normalized inclusive target range.
func (e Event) HostLo() int { lo, _ := e.hostRange(); return lo }
func (e Event) HostHi() int { _, hi := e.hostRange(); return hi }

// NeedsFaults reports whether applying the event requires a
// constructed fault injector (an enabled faults config).
func (e Event) NeedsFaults() bool {
	return e.Action == ActionFaultRate || e.Action == ActionWakeFail
}

// NeedsCtrlPlane reports whether applying the event requires a
// constructed control plane (an enabled ctrlplane config).
func (e Event) NeedsCtrlPlane() bool {
	return e.Action == ActionCtrlDegrade || e.Action == ActionCtrlPartition
}

// Validate checks the event against a fleet of the given size.
func (e Event) Validate(hosts int) error {
	if e.At < 0 {
		return fmt.Errorf("script: event at %v is before the start", e.At)
	}
	if e.Duration < 0 {
		return fmt.Errorf("script: %s has negative duration %v", e.Action, e.Duration)
	}
	checkRange := func() error {
		lo, hi := e.hostRange()
		if lo < 1 || hi < lo || hi > hosts {
			return fmt.Errorf("script: %s targets hosts %d..%d outside fleet 1..%d",
				e.Action, lo, hi, hosts)
		}
		return nil
	}
	switch e.Action {
	case ActionCrash:
		if e.Repair < 0 {
			return fmt.Errorf("script: crash has negative repair %v", e.Repair)
		}
		return checkRange()
	case ActionMaintenance, ActionMaintenanceEnd:
		return checkRange()
	case ActionPowerCap:
		if e.Watts < 0 {
			return fmt.Errorf("script: power-cap has negative watts %v", e.Watts)
		}
	case ActionDemandSurge:
		if e.Factor <= 0 {
			return fmt.Errorf("script: demand-surge needs factor > 0, got %v", e.Factor)
		}
	case ActionFaultRate:
		if e.Rate < 0 || e.Rate > 1 {
			return fmt.Errorf("script: fault-rate %v outside [0,1]", e.Rate)
		}
	case ActionWakeFail:
		if e.Prob < 0 || e.Prob > 1 {
			return fmt.Errorf("script: wake-fail probability %v outside [0,1]", e.Prob)
		}
	case ActionCtrlDegrade:
		if e.Delay < 0 {
			return fmt.Errorf("script: ctrl-degrade has negative delay %v", e.Delay)
		}
		if e.Loss < 0 || e.Loss > 1 {
			return fmt.Errorf("script: ctrl-degrade loss %v outside [0,1]", e.Loss)
		}
	case ActionCtrlPartition:
		if e.Duration <= 0 {
			return fmt.Errorf("script: ctrl-partition needs a positive duration")
		}
	default:
		return fmt.Errorf("script: unknown action %q", e.Action)
	}
	return nil
}

// String renders the event for reports and error messages.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v %s", e.At, e.Action)
	switch e.Action {
	case ActionCrash, ActionMaintenance, ActionMaintenanceEnd:
		lo, hi := e.hostRange()
		if lo == hi {
			fmt.Fprintf(&b, " host-%d", lo)
		} else {
			fmt.Fprintf(&b, " host-%d..%d", lo, hi)
		}
	case ActionPowerCap:
		fmt.Fprintf(&b, " %.0fW", e.Watts)
	case ActionDemandSurge:
		fmt.Fprintf(&b, " ×%g fleet=%q", e.Factor, e.Fleet)
	case ActionFaultRate:
		fmt.Fprintf(&b, " rate=%g", e.Rate)
	case ActionWakeFail:
		fmt.Fprintf(&b, " prob=%g", e.Prob)
	case ActionCtrlDegrade:
		fmt.Fprintf(&b, " delay=%v loss=%g", e.Delay, e.Loss)
	}
	if e.Duration > 0 {
		fmt.Fprintf(&b, " for %v", e.Duration)
	}
	return b.String()
}

// ParseTarget parses a host target: "host-17" is one host, and
// "host-3..7" the inclusive range 3..7. Host IDs are 1-based.
func ParseTarget(s string) (lo, hi int, err error) {
	const prefix = "host-"
	if !strings.HasPrefix(s, prefix) {
		return 0, 0, fmt.Errorf("script: target %q does not start with %q", s, prefix)
	}
	body := s[len(prefix):]
	loStr, hiStr, ranged := strings.Cut(body, "..")
	if lo, err = strconv.Atoi(loStr); err != nil {
		return 0, 0, fmt.Errorf("script: bad target %q: %v", s, err)
	}
	if !ranged {
		return lo, lo, nil
	}
	if hi, err = strconv.Atoi(hiStr); err != nil {
		return 0, 0, fmt.Errorf("script: bad target range %q: %v", s, err)
	}
	if hi < lo {
		return 0, 0, fmt.Errorf("script: empty target range %q", s)
	}
	return lo, hi, nil
}

// Assertion kinds. Continuous kinds are checked on every evaluation
// tick; final kinds once, against the finished run's aggregates.
const (
	// KindNoStrandedVM (continuous): no VM stays frozen on a crashed
	// host for longer than Over.
	KindNoStrandedVM = "no-stranded-vm"
	// KindPowerBelow (continuous): cluster power stays at or below
	// Watts (sustained past Over before it counts).
	KindPowerBelow = "power-below"
	// KindNoPendingVM (continuous): no VM waits unplaced longer than
	// Over.
	KindNoPendingVM = "no-pending-vm"
	// KindActiveHostsMin (continuous): at least Count hosts stay
	// available (sustained past Over before it counts).
	KindActiveHostsMin = "active-hosts-min"
	// KindSLAViolationMax (final): the run's violation fraction stays
	// at or below Frac.
	KindSLAViolationMax = "sla-violation-max"
	// KindSatisfactionMin (final): the run's satisfaction stays at or
	// above Frac.
	KindSatisfactionMin = "satisfaction-min"
	// KindEnergyBelow (final): the run's total energy stays at or
	// below KWh.
	KindEnergyBelow = "energy-below"
)

// Assertion is one predicate a scenario must satisfy. Continuous
// assertions are evaluated against every evaluation tick's cluster
// aggregates; a violation latches the first time the condition has
// held continuously for Over (0 = instantly) inside the [From, Until]
// window (Until 0 = the horizon). Final assertions are checked once
// against the Result.
type Assertion struct {
	// Kind selects the predicate (one of the Kind* constants).
	Kind string
	// Over is the grace: how long the bad condition must persist
	// before a continuous assertion is violated.
	Over time.Duration
	// From and Until bound when a continuous assertion is active
	// (Until 0 = until the horizon).
	From  time.Duration
	Until time.Duration

	// Watts bounds power-below; Frac bounds sla-violation-max and
	// satisfaction-min; Count bounds active-hosts-min; KWh bounds
	// energy-below.
	Watts float64
	Frac  float64
	Count int
	KWh   float64
}

// Continuous reports whether the assertion is checked per tick (as
// opposed to once, at the end of the run).
func (a Assertion) Continuous() bool {
	switch a.Kind {
	case KindNoStrandedVM, KindPowerBelow, KindNoPendingVM, KindActiveHostsMin:
		return true
	}
	return false
}

// Limit returns the assertion's numeric bound, for reporting.
func (a Assertion) Limit() float64 {
	switch a.Kind {
	case KindPowerBelow:
		return a.Watts
	case KindSLAViolationMax, KindSatisfactionMin:
		return a.Frac
	case KindActiveHostsMin:
		return float64(a.Count)
	case KindEnergyBelow:
		return a.KWh
	}
	return 0
}

// Validate checks the assertion.
func (a Assertion) Validate() error {
	if a.Over < 0 {
		return fmt.Errorf("script: assertion %s has negative grace %v", a.Kind, a.Over)
	}
	if a.From < 0 || a.Until < 0 || (a.Until > 0 && a.Until < a.From) {
		return fmt.Errorf("script: assertion %s has an empty window [%v, %v]", a.Kind, a.From, a.Until)
	}
	switch a.Kind {
	case KindNoStrandedVM, KindNoPendingVM:
	case KindPowerBelow:
		if a.Watts <= 0 {
			return fmt.Errorf("script: power-below needs watts > 0")
		}
	case KindActiveHostsMin:
		if a.Count <= 0 {
			return fmt.Errorf("script: active-hosts-min needs count > 0")
		}
	case KindSLAViolationMax, KindSatisfactionMin:
		if a.Frac < 0 || a.Frac > 1 {
			return fmt.Errorf("script: %s fraction %v outside [0,1]", a.Kind, a.Frac)
		}
	case KindEnergyBelow:
		if a.KWh <= 0 {
			return fmt.Errorf("script: energy-below needs kwh > 0")
		}
	default:
		return fmt.Errorf("script: unknown assertion kind %q", a.Kind)
	}
	return nil
}

// String renders the assertion for verdict lines.
func (a Assertion) String() string {
	var b strings.Builder
	b.WriteString(a.Kind)
	switch a.Kind {
	case KindPowerBelow:
		fmt.Fprintf(&b, "[%.0f W]", a.Watts)
	case KindSLAViolationMax, KindSatisfactionMin:
		fmt.Fprintf(&b, "[%g]", a.Frac)
	case KindActiveHostsMin:
		fmt.Fprintf(&b, "[%d]", a.Count)
	case KindEnergyBelow:
		fmt.Fprintf(&b, "[%g kWh]", a.KWh)
	}
	if a.Over > 0 {
		fmt.Fprintf(&b, " over %v", a.Over)
	}
	return b.String()
}
