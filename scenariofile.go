package agilepower

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"agilepower/internal/script"
)

// ScenarioFile is the declarative JSON form of a Scenario: the one
// request format, loaded by `scenario run` and accepted by the
// service's POST /v1/scenarios. Fleets are described by builder kind
// and parameters rather than per-VM traces, so files stay small and
// reproducible from their seeds.
//
//	{
//	  "name": "my-day",
//	  "hosts": 32,
//	  "fleets": [
//	    {"kind": "diurnal", "count": 96},
//	    {"kind": "spiky", "count": 40, "spikes": 4},
//	    {"kind": "replicated", "services": 8, "replicas": 3}
//	  ],
//	  "horizonHours": 24,
//	  "policy": "dpm-s3",
//	  "manager": {"periodMinutes": 5, "targetUtil": 0.7, "predictiveWake": true}
//	}
type ScenarioFile struct {
	Name         string  `json:"name,omitempty"`
	Hosts        int     `json:"hosts"`
	HostCores    float64 `json:"hostCores,omitempty"`
	HostMemoryGB float64 `json:"hostMemoryGB,omitempty"`
	// HostClasses optionally builds a heterogeneous fleet.
	HostClasses []HostClassFile `json:"hostClasses,omitempty"`
	// Profile optionally embeds a power calibration (the JSON
	// cmd/calibrate emits).
	Profile *Profile `json:"profile,omitempty"`

	Fleets []FleetFile `json:"fleets"`

	HorizonHours float64      `json:"horizonHours,omitempty"`
	Policy       string       `json:"policy,omitempty"`
	Manager      *ManagerFile `json:"manager,omitempty"`
	Churn        *ChurnFile   `json:"churn,omitempty"`
	// CtrlPlane degrades the management network (CtrlPreset mix).
	CtrlPlane *CtrlPlaneFile `json:"ctrlplane,omitempty"`
	// Faults injects the standard fault mix (FaultPreset rate). Zero
	// rate = dormant (no injector is built).
	Faults *FaultsFile `json:"faults,omitempty"`
	// Events is the timed event script: crashes, drains, power caps,
	// demand surges, fault retunes, control-plane windows.
	Events []EventFile `json:"events,omitempty"`
	// Assert lists predicates the run must satisfy; violations are
	// reported in the Result and drive nonzero CLI exits.
	Assert []AssertFile `json:"assert,omitempty"`
	// Chaos appends named-pattern generated event scripts (applied
	// after Events, in order).
	Chaos []ChaosFile `json:"chaos,omitempty"`
	Seed  uint64      `json:"seed,omitempty"`
	// TelemetryCap bounds each recorded time series to this many stored
	// samples (0 = unbounded — see Scenario.TelemetryCap).
	TelemetryCap int `json:"telemetryCap,omitempty"`
}

// HostClassFile mirrors HostClass in JSON.
type HostClassFile struct {
	Count    int     `json:"count"`
	Cores    float64 `json:"cores,omitempty"`
	MemoryGB float64 `json:"memoryGB,omitempty"`
}

// FleetFile selects a fleet builder.
type FleetFile struct {
	// Kind: diurnal, spiky, batch, mixed, workday, flat, replicated.
	Kind  string `json:"kind"`
	Count int    `json:"count,omitempty"`
	// Demand is the per-VM cores for flat fleets (default 1).
	Demand float64 `json:"demand,omitempty"`
	// Spikes per day for spiky fleets (default 4).
	Spikes int `json:"spikes,omitempty"`
	// Days for workday fleets (default 1).
	Days int `json:"days,omitempty"`
	// Services and Replicas for replicated fleets.
	Services int `json:"services,omitempty"`
	Replicas int `json:"replicas,omitempty"`
	// Seed offsets the scenario seed for this fleet (so two fleets of
	// the same kind differ).
	Seed uint64 `json:"seed,omitempty"`
}

// ManagerFile mirrors the tunable subset of ManagerConfig in JSON.
type ManagerFile struct {
	PeriodMinutes  float64 `json:"periodMinutes,omitempty"`
	TargetUtil     float64 `json:"targetUtil,omitempty"`
	WakeThreshold  float64 `json:"wakeThreshold,omitempty"`
	SpareHosts     int     `json:"spareHosts,omitempty"`
	MinActive      int     `json:"minActive,omitempty"`
	PredictiveWake bool    `json:"predictiveWake,omitempty"`
	PanicShortfall float64 `json:"panicShortfall,omitempty"`
	Forecast       string  `json:"forecast,omitempty"` // last-value, ewma, peak-window
}

// CtrlPlaneFile mirrors the CtrlPreset knobs in JSON: mean one-way
// message delay in milliseconds and per-leg loss probability. Zero
// both = dormant (no plane is built).
type CtrlPlaneFile struct {
	DelayMS float64 `json:"delayMS,omitempty"`
	Loss    float64 `json:"loss,omitempty"`
}

// FaultsFile mirrors the FaultPreset knob in JSON: the standard fault
// mix at intensity rate ∈ [0, 1]. Zero = dormant.
type FaultsFile struct {
	Rate float64 `json:"rate"`
}

// EventFile mirrors script.Event in JSON. Times and durations are Go
// duration strings ("2h", "90m", "45s"); hosts are targeted as
// "host-17" or "host-3..7" (1-based, inclusive).
//
//	{"at": "2h", "action": "crash", "target": "host-17"}
//	{"at": "4h", "action": "demand-surge", "factor": 3, "fleet": "web", "duration": "1h"}
//	{"at": "6h", "action": "power-cap", "watts": 90000, "duration": "2h"}
type EventFile struct {
	At       string  `json:"at"`
	Action   string  `json:"action"`
	Target   string  `json:"target,omitempty"`
	Repair   string  `json:"repair,omitempty"`
	Duration string  `json:"duration,omitempty"`
	Factor   float64 `json:"factor,omitempty"`
	Fleet    string  `json:"fleet,omitempty"`
	Watts    float64 `json:"watts,omitempty"`
	Rate     float64 `json:"rate,omitempty"`
	Prob     float64 `json:"prob,omitempty"`
	Delay    string  `json:"delay,omitempty"`
	Loss     float64 `json:"loss,omitempty"`
}

// AssertFile mirrors script.Assertion in JSON.
//
//	{"kind": "no-stranded-vm", "over": "10m"}
//	{"kind": "power-below", "watts": 90000}
//	{"kind": "sla-violation-max", "frac": 0.01}
type AssertFile struct {
	Kind  string  `json:"kind"`
	Over  string  `json:"over,omitempty"`
	From  string  `json:"from,omitempty"`
	Until string  `json:"until,omitempty"`
	Watts float64 `json:"watts,omitempty"`
	Frac  float64 `json:"frac,omitempty"`
	Count int     `json:"count,omitempty"`
	KWh   float64 `json:"kwh,omitempty"`
}

// ChaosFile names one chaos pattern instance (see ChaosPatterns).
//
//	{"pattern": "az-outage", "intensity": 0.5, "at": "6h", "duration": "1h"}
type ChaosFile struct {
	Pattern   string  `json:"pattern"`
	Intensity float64 `json:"intensity"`
	At        string  `json:"at,omitempty"`
	Duration  string  `json:"duration,omitempty"`
	Hosts     int     `json:"hosts,omitempty"`
	Salt      uint64  `json:"salt,omitempty"`
}

// ChurnFile mirrors ChurnSpec in JSON.
type ChurnFile struct {
	ArrivalsPerHour   float64 `json:"arrivalsPerHour"`
	MeanLifetimeHours float64 `json:"meanLifetimeHours,omitempty"`
	DemandCores       float64 `json:"demandCores,omitempty"`
	VCPUs             float64 `json:"vcpus,omitempty"`
	MemoryGB          float64 `json:"memoryGB,omitempty"`
}

// ParseScenario decodes and materializes a scenario file.
func ParseScenario(data []byte) (Scenario, error) {
	f, err := DecodeScenarioFile(data)
	if err != nil {
		return Scenario{}, err
	}
	return f.Build()
}

// DecodeScenarioFile strictly decodes a scenario file without
// building it. Unknown keys are rejected, not ignored: a typo'd knob
// ("telemtryCap") would otherwise silently fall back to its default
// and the run would measure something other than what the file asked
// for. So is anything after the one JSON object.
func DecodeScenarioFile(data []byte) (ScenarioFile, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var f ScenarioFile
	if err := dec.Decode(&f); err != nil {
		return ScenarioFile{}, fmt.Errorf("agilepower: decoding scenario file: %w", err)
	}
	if err := dec.Decode(new(json.RawMessage)); !errors.Is(err, io.EOF) {
		return ScenarioFile{}, fmt.Errorf("agilepower: trailing data after scenario object")
	}
	return f, nil
}

// Canonical returns the file's canonical encoding for content
// addressing: the decoded struct re-marshalled by encoding/json, which
// is deterministic — struct fields render in declaration order and map
// keys sort — so two requests that decode equal produce identical
// bytes regardless of their original formatting, key order, or
// whitespace. Combined with CodeVersion this is the scenario half of
// the result-cache key (see internal/rescache.Key): same canonical
// bytes + same seed (a field of the file) + same code ⇒ same result
// bytes, by the determinism guarantee the CI gates pin.
func (f ScenarioFile) Canonical() ([]byte, error) {
	data, err := json.Marshal(f)
	if err != nil {
		return nil, fmt.Errorf("agilepower: canonicalizing scenario file: %w", err)
	}
	return data, nil
}

// TotalHosts returns the host count the file would build — the
// homogeneous count or the class sum — for admission budgeting before
// the fleet is materialized. within is false when a count is negative
// or the total exceeds limit; each count is checked against limit
// before it is added, so no file can overflow the sum.
func (f ScenarioFile) TotalHosts(limit int) (n int, within bool) {
	if len(f.HostClasses) == 0 {
		return addCount(0, f.Hosts, limit)
	}
	for _, hc := range f.HostClasses {
		if n, within = addCount(n, hc.Count, limit); !within {
			return 0, false
		}
	}
	return n, true
}

// TotalVMs returns the VM count the file's fleets would build (each
// fleet's effective count, with the builders' minimum of one and the
// services×replicas form), for admission budgeting before the fleet is
// materialized. within is false when any count is negative or the
// total exceeds limit, checked as TotalHosts does.
func (f ScenarioFile) TotalVMs(limit int) (n int, within bool) {
	for _, ff := range f.Fleets {
		if ff.Count < 0 || ff.Services < 0 || ff.Replicas < 0 {
			return 0, false
		}
		c := max1(ff.Count)
		if ff.Kind == "replicated" {
			if ff.Services > 0 && ff.Replicas > limit/ff.Services {
				return 0, false
			}
			c = ff.Services * ff.Replicas
		}
		if n, within = addCount(n, c, limit); !within {
			return 0, false
		}
	}
	return n, true
}

// addCount adds c to a running total that is already within limit,
// refusing a negative c and any sum past limit without overflowing.
func addCount(total, c, limit int) (int, bool) {
	if c < 0 || c > limit-total {
		return 0, false
	}
	return total + c, true
}

// parseDur parses an optional Go duration string ("2h", "90m"); empty
// means zero.
func parseDur(field, s string) (time.Duration, error) {
	if s == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("agilepower: bad %s duration %q: %w", field, s, err)
	}
	return d, nil
}

// buildEvent converts one EventFile into a script event.
func buildEvent(ef EventFile) (ScriptEvent, error) {
	var e ScriptEvent
	var err error
	if e.At, err = parseDur("at", ef.At); err != nil {
		return e, err
	}
	e.Action = ef.Action
	if ef.Target != "" {
		if e.Host, e.HostTo, err = script.ParseTarget(ef.Target); err != nil {
			return e, err
		}
	}
	if e.Repair, err = parseDur("repair", ef.Repair); err != nil {
		return e, err
	}
	if e.Duration, err = parseDur("duration", ef.Duration); err != nil {
		return e, err
	}
	if e.Delay, err = parseDur("delay", ef.Delay); err != nil {
		return e, err
	}
	e.Factor = ef.Factor
	e.Fleet = ef.Fleet
	e.Watts = ef.Watts
	e.Rate = ef.Rate
	e.Prob = ef.Prob
	e.Loss = ef.Loss
	return e, nil
}

// buildAssert converts one AssertFile into an assertion spec.
func buildAssert(af AssertFile) (AssertSpec, error) {
	var a AssertSpec
	var err error
	a.Kind = af.Kind
	if a.Over, err = parseDur("over", af.Over); err != nil {
		return a, err
	}
	if a.From, err = parseDur("from", af.From); err != nil {
		return a, err
	}
	if a.Until, err = parseDur("until", af.Until); err != nil {
		return a, err
	}
	a.Watts = af.Watts
	a.Frac = af.Frac
	a.Count = af.Count
	a.KWh = af.KWh
	return a, nil
}

// Build materializes the file into a runnable Scenario.
func (f ScenarioFile) Build() (Scenario, error) {
	seed := f.Seed
	if seed == 0 {
		seed = 1
	}
	var fleet []VMSpec
	for i, ff := range f.Fleets {
		fseed := seed + ff.Seed + uint64(i)*1000
		vms, err := buildFleetFile(ff, fseed)
		if err != nil {
			return Scenario{}, fmt.Errorf("agilepower: fleet %d: %w", i, err)
		}
		fleet = append(fleet, vms...)
	}
	if len(fleet) == 0 {
		return Scenario{}, fmt.Errorf("agilepower: scenario file has no fleets")
	}

	sc := Scenario{
		Name:         f.Name,
		Hosts:        f.Hosts,
		HostCores:    f.HostCores,
		HostMemoryGB: f.HostMemoryGB,
		Profile:      f.Profile,
		VMs:          fleet,
		Horizon:      time.Duration(f.HorizonHours * float64(time.Hour)),
		Seed:         seed,
		TelemetryCap: f.TelemetryCap,
	}
	for _, hc := range f.HostClasses {
		sc.HostClasses = append(sc.HostClasses, HostClass{
			Count:    hc.Count,
			Cores:    hc.Cores,
			MemoryGB: hc.MemoryGB,
		})
	}
	if f.Policy != "" {
		found := false
		for _, p := range Policies() {
			if p.Name == f.Policy {
				sc.Manager.Policy = p
				found = true
			}
		}
		if !found {
			return Scenario{}, fmt.Errorf("agilepower: unknown policy %q", f.Policy)
		}
	}
	if m := f.Manager; m != nil {
		sc.Manager.Period = time.Duration(m.PeriodMinutes * float64(time.Minute))
		sc.Manager.TargetUtil = m.TargetUtil
		sc.Manager.WakeThreshold = m.WakeThreshold
		sc.Manager.SpareHosts = m.SpareHosts
		sc.Manager.MinActive = m.MinActive
		sc.Manager.PredictiveWake = m.PredictiveWake
		sc.Manager.PanicShortfall = m.PanicShortfall
		switch m.Forecast {
		case "":
		case "last-value":
			sc.Manager.Forecast = ForecastSpec{Kind: ForecastLastValue}
		case "ewma":
			sc.Manager.Forecast = ForecastSpec{Kind: ForecastEWMA}
		case "peak-window":
			sc.Manager.Forecast = ForecastSpec{Kind: ForecastPeakWindow}
		default:
			return Scenario{}, fmt.Errorf("agilepower: unknown forecast %q", m.Forecast)
		}
	}
	if cp := f.CtrlPlane; cp != nil {
		if cp.DelayMS < 0 {
			return Scenario{}, fmt.Errorf("agilepower: negative ctrlplane delay %v ms", cp.DelayMS)
		}
		if cp.Loss < 0 || cp.Loss > 1 {
			return Scenario{}, fmt.Errorf("agilepower: ctrlplane loss %v outside [0,1]", cp.Loss)
		}
		// A zero mix stays nil so no plane is ever constructed (dormancy).
		if cfg := CtrlPreset(time.Duration(cp.DelayMS*float64(time.Millisecond)), cp.Loss); cfg.Enabled() {
			sc.CtrlPlane = &cfg
		}
	}
	if fl := f.Faults; fl != nil {
		if fl.Rate < 0 || fl.Rate > 1 {
			return Scenario{}, fmt.Errorf("agilepower: fault rate %v outside [0,1]", fl.Rate)
		}
		// A zero rate stays nil so no injector is ever constructed
		// (dormancy).
		if cfg := FaultPreset(fl.Rate); cfg.Enabled() {
			sc.Faults = &cfg
		}
	}
	if c := f.Churn; c != nil {
		sc.Churn = &ChurnSpec{
			ArrivalsPerHour: c.ArrivalsPerHour,
			MeanLifetime:    time.Duration(c.MeanLifetimeHours * float64(time.Hour)),
			DemandCores:     c.DemandCores,
			VCPUs:           c.VCPUs,
			MemoryGB:        c.MemoryGB,
		}
	}
	for i, ef := range f.Events {
		e, err := buildEvent(ef)
		if err != nil {
			return Scenario{}, fmt.Errorf("agilepower: event %d: %w", i, err)
		}
		sc.Script = append(sc.Script, e)
	}
	for i, af := range f.Assert {
		a, err := buildAssert(af)
		if err != nil {
			return Scenario{}, fmt.Errorf("agilepower: assertion %d: %w", i, err)
		}
		sc.Asserts = append(sc.Asserts, a)
	}
	for i, cf := range f.Chaos {
		at, err := parseDur("at", cf.At)
		if err != nil {
			return Scenario{}, fmt.Errorf("agilepower: chaos %d: %w", i, err)
		}
		dur, err := parseDur("duration", cf.Duration)
		if err != nil {
			return Scenario{}, fmt.Errorf("agilepower: chaos %d: %w", i, err)
		}
		sc, err = sc.WithChaos(ChaosParams{
			Pattern:   cf.Pattern,
			Intensity: cf.Intensity,
			At:        at,
			Duration:  dur,
			Hosts:     cf.Hosts,
			Salt:      cf.Salt,
		})
		if err != nil {
			return Scenario{}, fmt.Errorf("agilepower: chaos %d: %w", i, err)
		}
	}
	if err := sc.Validate(); err != nil {
		return Scenario{}, err
	}
	return sc, nil
}

// Fleet generator bounds: each caps an allocation a generator sizes from
// the file, so no scenario file can make one overflow or ask for
// unbounded memory per VM.
const (
	maxSpikesPerDay = 24 * 60 // one flash crowd a minute
	maxWorkdayDays  = 366     // a workday trace holds every day's samples
)

func buildFleetFile(ff FleetFile, seed uint64) ([]VMSpec, error) {
	switch ff.Kind {
	case "diurnal":
		return DiurnalFleet(max1(ff.Count), seed), nil
	case "spiky":
		spikes := ff.Spikes
		if spikes <= 0 {
			spikes = 4
		}
		if spikes > maxSpikesPerDay {
			return nil, fmt.Errorf("spiky fleet has %d spikes a day, above %d", spikes, maxSpikesPerDay)
		}
		return SpikyFleet(max1(ff.Count), spikes, seed), nil
	case "batch":
		return BatchFleet(max1(ff.Count), seed), nil
	case "mixed":
		return MixedFleet(max1(ff.Count), seed), nil
	case "workday":
		days := ff.Days
		if days <= 0 {
			days = 1
		}
		if days > maxWorkdayDays {
			return nil, fmt.Errorf("workday fleet spans %d days, above %d", days, maxWorkdayDays)
		}
		return WorkdayFleet(max1(ff.Count), days, seed), nil
	case "flat":
		d := ff.Demand
		if d <= 0 {
			d = 1
		}
		return ConstantFleet(max1(ff.Count), d), nil
	case "replicated":
		if ff.Services <= 0 || ff.Replicas <= 0 {
			return nil, fmt.Errorf("replicated fleet needs services and replicas")
		}
		return ReplicatedFleet(ff.Services, ff.Replicas, seed), nil
	default:
		return nil, fmt.Errorf("unknown fleet kind %q", ff.Kind)
	}
}

func max1(n int) int {
	if n < 1 {
		return 1
	}
	return n
}
