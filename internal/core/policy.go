package core

import (
	"fmt"
	"time"

	"agilepower/internal/power"
)

// Policy selects which management behaviours the controller runs. The
// paper's evaluation compares four corners of this space plus an
// analytic oracle (see oracle.go).
type Policy struct {
	// Name labels the policy in reports.
	Name string
	// LoadBalance enables DRM behaviour: spreading load off overloaded
	// hosts. All non-static policies have it.
	LoadBalance bool
	// Consolidate enables packing VMs onto few hosts via migration.
	Consolidate bool
	// PowerManage enables parking emptied hosts and waking them on
	// demand.
	PowerManage bool
	// SleepState is the park state when PowerManage is on.
	SleepState power.State
	// DVFS scales each active host's frequency to its forecast load —
	// the processor-level alternative the paper's intro contrasts with.
	// It saves only dynamic power, so on its own it cannot approach
	// energy proportionality; combined with PowerManage it trims the
	// awake hosts' draw.
	DVFS bool
}

// Preset policies.
var (
	// Static — no management at all: every host stays on, VMs never
	// move. The "provisioned for peak" datacenter.
	Static = Policy{Name: "static"}
	// NoPM — base distributed resource management: load balancing
	// only, no power actions. The adoption baseline the paper compares
	// overheads against.
	NoPM = Policy{Name: "nopm-drm", LoadBalance: true}
	// DPMS5 — traditional power management using soft-off: consolidate
	// and shut servers down. High-latency transitions make it timid
	// and slow to react.
	DPMS5 = Policy{Name: "dpm-s5", LoadBalance: true, Consolidate: true, PowerManage: true, SleepState: power.S5}
	// DPMS3 — the paper's contribution: the same manager driving
	// low-latency suspend-to-RAM states.
	DPMS3 = Policy{Name: "dpm-s3", LoadBalance: true, Consolidate: true, PowerManage: true, SleepState: power.S3}
	// DVFSOnly — frequency scaling without any consolidation or
	// parking: every host stays on, clocked down to its load. The
	// baseline that shows why processor-level knobs are not enough.
	DVFSOnly = Policy{Name: "dvfs", LoadBalance: true, DVFS: true}
)

// Policies returns the standard comparison set in report order.
func Policies() []Policy { return []Policy{Static, NoPM, DPMS5, DPMS3} }

// Validate checks the policy for consistency.
func (p Policy) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("core: policy needs a name")
	}
	if p.PowerManage && !p.SleepState.IsSleep() {
		return fmt.Errorf("core: policy %q power-manages without a sleep state", p.Name)
	}
	if p.PowerManage && !p.Consolidate {
		return fmt.Errorf("core: policy %q cannot power-manage without consolidation", p.Name)
	}
	return nil
}

// Config tunes the manager's control loop.
type Config struct {
	// Policy selects behaviour (default DPMS3).
	Policy Policy
	// Period is the control loop interval (default 5 minutes).
	Period time.Duration
	// TargetUtil is the CPU headroom target for packing: a host is
	// filled to at most this fraction of its cores (default 0.70).
	TargetUtil float64
	// WakeThreshold: when forecast demand exceeds this fraction of
	// active capacity, hosts are woken (default 0.85). The gap between
	// WakeThreshold and TargetUtil is the utilization hysteresis band:
	// right after a scale-down the kept hosts run at ≈TargetUtil, so
	// demand must grow by the band before anything is woken again.
	WakeThreshold float64
	// ParkCooldown is how long after a host wakes before it may be
	// evacuated again (default 2× Period). Without it, a host woken
	// for a surge is the least-loaded server the moment the surge
	// fades and would be re-parked immediately — wake/park flapping
	// that burns transition energy and migration churn.
	ParkCooldown time.Duration
	// SleepDelay is how long a scale-down opportunity must persist
	// before hosts are evacuated — the flap damper, and the knob that
	// encodes transition risk. Zero selects the latency-aware default:
	// twice the sleep state's round-trip (entry+exit) latency, so slow
	// states (S5) are parked far more cautiously than agile ones (S3),
	// exactly the conservatism real managers need with high-latency
	// transitions. Negative disables the delay entirely.
	SleepDelay time.Duration
	// MinActive is the floor on available hosts (default 1).
	MinActive int
	// SpareHosts keeps this many extra hosts awake beyond the packing
	// requirement, as an insurance buffer against wake latency
	// (default 0).
	SpareHosts int
	// Forecast selects the demand predictor (default peak-window).
	Forecast ForecastSpec
	// Packing selects the bin-packing heuristic (default FFD).
	Packing PackKind
	// PanicShortfall arms the emergency brake: when the fraction of
	// cluster demand going unserved exceeds this for two consecutive
	// monitoring ticks, the manager wakes every sleeping host, cancels
	// evacuations, and suspends scale-down for PanicHold. Zero
	// disables the brake (the default — it is an operator opt-in
	// backstop, not part of the paper's policy).
	PanicShortfall float64
	// PanicHold is how long scale-down stays suspended after a panic
	// (default 15 minutes).
	PanicHold time.Duration
	// PredictiveWake enables time-of-day demand prediction: the
	// manager learns the cluster's diurnal curve (EWMA per half-hour
	// bucket) and wakes capacity ahead of recurring ramps, covering the
	// sleep state's exit latency. The classic mitigation for slow
	// states — and deliberately blind to unpredictable surges, which is
	// the gap only low-latency states close.
	PredictiveWake bool
	// MaxMigrationsPerStep caps migrations launched per control period
	// (default 0 = unlimited; the per-host migration limit still
	// applies).
	MaxMigrationsPerStep int
	// LBThreshold is the host utilization fraction above which load
	// balancing offloads VMs (default 0.90).
	LBThreshold float64

	// MaxTransitionRetries is how many times a failed power transition
	// (a suspend that did not take, a resume that fell back asleep) is
	// retried with backoff before the host is quarantined (default 3;
	// negative disables retries — first failure quarantines).
	MaxTransitionRetries int
	// RetryBackoffBase is the first retry delay after a failed
	// transition; each further failure doubles it, capped at
	// RetryBackoffMax (defaults 30s and 10m).
	RetryBackoffBase time.Duration
	RetryBackoffMax  time.Duration
	// QuarantineHold is how long a host that exhausted its transition
	// retries is barred from further power actions (default 1h). A
	// suspend-quarantined host stays on and serving — graceful
	// degradation spends energy, never SLA.
	QuarantineHold time.Duration
	// MigrationRetryBackoff is how long after an aborted migration the
	// VM is exempt from new move attempts (default 2m), so a flaky
	// path is not hammered every control period.
	MigrationRetryBackoff time.Duration
}

func (c *Config) applyDefaults() {
	if c.Policy.Name == "" {
		c.Policy = DPMS3
	}
	if c.Period <= 0 {
		c.Period = 5 * time.Minute
	}
	if c.TargetUtil == 0 {
		c.TargetUtil = 0.70
	}
	if c.WakeThreshold == 0 {
		c.WakeThreshold = 0.85
	}
	if c.ParkCooldown == 0 {
		c.ParkCooldown = 2 * c.Period
	}
	if c.PanicHold == 0 {
		c.PanicHold = 15 * time.Minute
	}
	if c.MinActive <= 0 {
		c.MinActive = 1
	}
	if c.Forecast.Kind == ForecastDefault {
		c.Forecast = ForecastSpec{Kind: ForecastPeakWindow, Window: c.Forecast.Window, Alpha: c.Forecast.Alpha}
	}
	if c.LBThreshold == 0 {
		c.LBThreshold = 0.90
	}
	if c.MaxTransitionRetries == 0 {
		c.MaxTransitionRetries = 3
	} else if c.MaxTransitionRetries < 0 {
		c.MaxTransitionRetries = 0
	}
	if c.RetryBackoffBase <= 0 {
		c.RetryBackoffBase = 30 * time.Second
	}
	if c.RetryBackoffMax <= 0 {
		c.RetryBackoffMax = 10 * time.Minute
	}
	if c.QuarantineHold <= 0 {
		c.QuarantineHold = time.Hour
	}
	if c.MigrationRetryBackoff <= 0 {
		c.MigrationRetryBackoff = 2 * time.Minute
	}
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if err := c.Policy.Validate(); err != nil {
		return err
	}
	if c.TargetUtil <= 0 || c.TargetUtil > 1 {
		return fmt.Errorf("core: target utilization %v outside (0,1]", c.TargetUtil)
	}
	if c.WakeThreshold <= 0 || c.WakeThreshold > 1 {
		return fmt.Errorf("core: wake threshold %v outside (0,1]", c.WakeThreshold)
	}
	if c.WakeThreshold <= c.TargetUtil {
		return fmt.Errorf("core: wake threshold %v must exceed target utilization %v (hysteresis band)",
			c.WakeThreshold, c.TargetUtil)
	}
	if c.LBThreshold <= 0 || c.LBThreshold > 1 {
		return fmt.Errorf("core: load-balance threshold %v outside (0,1]", c.LBThreshold)
	}
	if c.SpareHosts < 0 {
		return fmt.Errorf("core: negative spare hosts %d", c.SpareHosts)
	}
	if c.MaxMigrationsPerStep < 0 {
		return fmt.Errorf("core: negative migration cap %d", c.MaxMigrationsPerStep)
	}
	if c.ParkCooldown < 0 {
		return fmt.Errorf("core: negative park cooldown %v", c.ParkCooldown)
	}
	if c.PanicShortfall < 0 || c.PanicShortfall > 1 {
		return fmt.Errorf("core: panic shortfall %v outside [0,1]", c.PanicShortfall)
	}
	if c.PanicHold < 0 {
		return fmt.Errorf("core: negative panic hold %v", c.PanicHold)
	}
	if c.RetryBackoffMax < c.RetryBackoffBase {
		return fmt.Errorf("core: retry backoff max %v below base %v", c.RetryBackoffMax, c.RetryBackoffBase)
	}
	if _, err := c.Forecast.New(); err != nil {
		return err
	}
	return nil
}
