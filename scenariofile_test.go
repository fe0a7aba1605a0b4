package agilepower

import (
	"strings"
	"testing"
	"time"
)

const sampleScenarioFile = `{
  "name": "file-test",
  "hosts": 8,
  "fleets": [
    {"kind": "diurnal", "count": 16},
    {"kind": "spiky", "count": 8, "spikes": 2},
    {"kind": "replicated", "services": 2, "replicas": 3}
  ],
  "horizonHours": 6,
  "policy": "dpm-s3",
  "manager": {"periodMinutes": 3, "targetUtil": 0.65, "predictiveWake": true, "forecast": "ewma"},
  "churn": {"arrivalsPerHour": 2, "meanLifetimeHours": 1},
  "seed": 5
}`

func TestParseScenarioFull(t *testing.T) {
	sc, err := ParseScenario([]byte(sampleScenarioFile))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name != "file-test" || sc.Hosts != 8 || sc.Seed != 5 {
		t.Fatalf("header: %+v", sc)
	}
	if len(sc.VMs) != 16+8+6 {
		t.Fatalf("fleet size = %d", len(sc.VMs))
	}
	if sc.Horizon != 6*time.Hour {
		t.Fatalf("horizon = %v", sc.Horizon)
	}
	if sc.Manager.Policy.Name != "dpm-s3" {
		t.Fatalf("policy = %q", sc.Manager.Policy.Name)
	}
	if sc.Manager.Period != 3*time.Minute || sc.Manager.TargetUtil != 0.65 {
		t.Fatalf("manager: %+v", sc.Manager)
	}
	if !sc.Manager.PredictiveWake {
		t.Fatal("predictive not set")
	}
	if sc.Manager.Forecast.Kind != ForecastEWMA {
		t.Fatalf("forecast = %v", sc.Manager.Forecast.Kind)
	}
	if sc.Churn == nil || sc.Churn.ArrivalsPerHour != 2 || sc.Churn.MeanLifetime != time.Hour {
		t.Fatalf("churn: %+v", sc.Churn)
	}
	// And it runs.
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Energy <= 0 {
		t.Fatal("no energy")
	}
}

func TestParseScenarioErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"bad json", `{`},
		{"no fleets", `{"hosts":4,"fleets":[]}`},
		{"bad fleet kind", `{"hosts":4,"fleets":[{"kind":"quantum","count":2}]}`},
		{"bad policy", `{"hosts":4,"policy":"yolo","fleets":[{"kind":"flat","count":2}]}`},
		{"bad forecast", `{"hosts":4,"fleets":[{"kind":"flat","count":2}],"manager":{"forecast":"crystal-ball"}}`},
		{"replicated missing params", `{"hosts":4,"fleets":[{"kind":"replicated"}]}`},
		{"workday days past bound", `{"hosts":4,"fleets":[{"kind":"workday","count":1,"days":200000}]}`},
		{"spikes past bound", `{"hosts":4,"fleets":[{"kind":"spiky","count":1,"spikes":1000000000}]}`},
		{"no hosts", `{"fleets":[{"kind":"flat","count":2}]}`},
		{"bad churn", `{"hosts":4,"fleets":[{"kind":"flat","count":2}],"churn":{"arrivalsPerHour":-1}}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseScenario([]byte(tc.in)); err == nil {
				t.Errorf("accepted %s", tc.name)
			}
		})
	}
}

func TestParseScenarioHostClasses(t *testing.T) {
	in := `{
	  "hostClasses": [{"count": 2, "cores": 32}, {"count": 4}],
	  "fleets": [{"kind": "flat", "count": 6, "demand": 0.5}],
	  "horizonHours": 1
	}`
	sc, err := ParseScenario([]byte(in))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Hosts != 6 {
		t.Fatalf("hosts = %d", res.Hosts)
	}
}

func TestParseScenarioDeterministicFleets(t *testing.T) {
	a, err := ParseScenario([]byte(sampleScenarioFile))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseScenario([]byte(sampleScenarioFile))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.VMs {
		if a.VMs[i].Trace.At(3*time.Hour) != b.VMs[i].Trace.At(3*time.Hour) {
			t.Fatal("scenario file fleets not deterministic")
		}
	}
	// Two fleets of the same kind in one file must differ.
	in := `{"hosts":4,"fleets":[{"kind":"diurnal","count":2},{"kind":"diurnal","count":2}],"horizonHours":1}`
	sc, err := ParseScenario([]byte(in))
	if err != nil {
		t.Fatal(err)
	}
	if sc.VMs[0].Trace.At(6*time.Hour) == sc.VMs[2].Trace.At(6*time.Hour) {
		t.Fatal("same-kind fleets share a seed")
	}
}

// A typo'd key must be rejected, not silently ignored: the misspelled
// knob would otherwise fall back to its default and the run would
// measure something other than what the file asked for. Keys of
// retired knobs (evalWorkers, manager.incremental) are unknown keys
// like any other. The error names the offending key.
func TestParseScenarioRejectsUnknownKeys(t *testing.T) {
	cases := []struct {
		name string
		in   string
		key  string // named in the error; empty when no key is at fault
	}{
		{"misspelled telemetryCap", `{"hosts":4,"fleets":[{"kind":"flat","count":2}],"telemtryCap":100}`, "telemtryCap"},
		{"misspelled horizon", `{"hosts":4,"horizonHrs":6,"fleets":[{"kind":"flat","count":2}]}`, "horizonHrs"},
		{"unknown top-level", `{"hosts":4,"fleets":[{"kind":"flat","count":2}],"bogus":true}`, "bogus"},
		{"unknown nested manager", `{"hosts":4,"fleets":[{"kind":"flat","count":2}],"manager":{"periodMins":5}}`, "periodMins"},
		{"unknown event field", `{"hosts":4,"fleets":[{"kind":"flat","count":2}],"events":[{"at":"1h","action":"crash","hostID":1}]}`, "hostID"},
		{"unknown assert field", `{"hosts":4,"fleets":[{"kind":"flat","count":2}],"assert":[{"kind":"no-stranded-vm","grace":"1m"}]}`, "grace"},
		{"evalWorkers", `{"hosts":4,"fleets":[{"kind":"flat","count":2}],"shards":2,"evalWorkers":2}`, "evalWorkers"},
		{"manager incremental", `{"hosts":4,"fleets":[{"kind":"flat","count":2}],"manager":{"incremental":"off"}}`, "incremental"},
		{"delta", `{"hosts":4,"fleets":[{"kind":"flat","count":2}],"delta":true}`, "delta"},
		{"trailing data", `{"hosts":4,"fleets":[{"kind":"flat","count":2}]} {"more":1}`, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseScenario([]byte(tc.in))
			if err == nil {
				t.Fatalf("accepted %s", tc.name)
			}
			if tc.key != "" && !strings.Contains(err.Error(), `"`+tc.key+`"`) {
				t.Errorf("error does not name key %q: %v", tc.key, err)
			}
		})
	}
}

// Events, assertions, faults and chaos sections round-trip from JSON
// into the scenario.
func TestParseScenarioScriptSections(t *testing.T) {
	in := `{
	  "hosts": 8,
	  "fleets": [{"kind": "diurnal", "count": 16}],
	  "horizonHours": 6,
	  "faults": {"rate": 0.1},
	  "ctrlplane": {"delayMS": 50, "loss": 0.01},
	  "events": [
	    {"at": "1h", "action": "crash", "target": "host-2..3", "repair": "20m"},
	    {"at": "2h", "action": "demand-surge", "factor": 2.5, "fleet": "web", "duration": "1h"},
	    {"at": "3h", "action": "power-cap", "watts": 1500, "duration": "1h"},
	    {"at": "4h", "action": "ctrl-degrade", "delay": "200ms", "loss": 0.05, "duration": "30m"}
	  ],
	  "assert": [
	    {"kind": "no-stranded-vm", "from": "2h", "over": "15m"},
	    {"kind": "power-below", "watts": 9000, "over": "1m"},
	    {"kind": "sla-violation-max", "frac": 0.25}
	  ],
	  "chaos": [
	    {"pattern": "az-outage", "intensity": 0.5, "at": "5h", "duration": "30m", "salt": 1}
	  ]
	}`
	sc, err := ParseScenario([]byte(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Script) != 4+1 {
		t.Fatalf("script has %d events, want 4 scripted + 1 chaos", len(sc.Script))
	}
	e := sc.Script[0]
	if e.At != time.Hour || e.Action != ActionCrash || e.Host != 2 || e.HostTo != 3 || e.Repair != 20*time.Minute {
		t.Fatalf("event 0: %+v", e)
	}
	if sc.Script[1].Factor != 2.5 || sc.Script[1].Fleet != "web" || sc.Script[1].Duration != time.Hour {
		t.Fatalf("event 1: %+v", sc.Script[1])
	}
	chaosEv := sc.Script[4]
	if chaosEv.Action != ActionCrash || chaosEv.At != 5*time.Hour {
		t.Fatalf("chaos event: %+v", chaosEv)
	}
	if len(sc.Asserts) != 3 {
		t.Fatalf("asserts: %d", len(sc.Asserts))
	}
	if sc.Asserts[0].From != 2*time.Hour || sc.Asserts[0].Over != 15*time.Minute {
		t.Fatalf("assert 0: %+v", sc.Asserts[0])
	}
	if sc.Faults == nil || !sc.Faults.Enabled() {
		t.Fatal("faults section dropped")
	}
	// And the scripted scenario runs end to end.
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Assertions) != 3 {
		t.Fatalf("verdicts: %d", len(res.Assertions))
	}
}

// A zero fault rate and a dormant chaos block leave their subsystems
// unbuilt, exactly like files without the sections.
func TestParseScenarioDormantSections(t *testing.T) {
	in := `{
	  "hosts": 4,
	  "fleets": [{"kind": "flat", "count": 4}],
	  "horizonHours": 1,
	  "faults": {"rate": 0},
	  "chaos": [{"pattern": "az-outage", "intensity": 0}]
	}`
	sc, err := ParseScenario([]byte(in))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Faults != nil {
		t.Fatal("zero-rate faults materialized a config")
	}
	if len(sc.Script) != 0 {
		t.Fatal("dormant chaos emitted events")
	}
}

// Bad script sections are rejected with context.
func TestParseScenarioScriptErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"bad event time", `{"hosts":4,"fleets":[{"kind":"flat","count":2}],"events":[{"at":"soon","action":"crash","target":"host-1"}]}`},
		{"bad target", `{"hosts":4,"fleets":[{"kind":"flat","count":2}],"events":[{"at":"1h","action":"crash","target":"rack-1"}]}`},
		{"target outside fleet", `{"hosts":4,"fleets":[{"kind":"flat","count":2}],"events":[{"at":"1h","action":"crash","target":"host-9"}]}`},
		{"unknown action", `{"hosts":4,"fleets":[{"kind":"flat","count":2}],"events":[{"at":"1h","action":"explode"}]}`},
		{"fault event without faults", `{"hosts":4,"fleets":[{"kind":"flat","count":2}],"events":[{"at":"1h","action":"fault-rate","rate":0.5}]}`},
		{"ctrl event without plane", `{"hosts":4,"fleets":[{"kind":"flat","count":2}],"events":[{"at":"1h","action":"ctrl-partition","duration":"10m"}]}`},
		{"bad assert kind", `{"hosts":4,"fleets":[{"kind":"flat","count":2}],"assert":[{"kind":"always-green"}]}`},
		{"bad assert window", `{"hosts":4,"fleets":[{"kind":"flat","count":2}],"assert":[{"kind":"no-stranded-vm","from":"2h","until":"1h"}]}`},
		{"unknown chaos pattern", `{"hosts":4,"fleets":[{"kind":"flat","count":2}],"chaos":[{"pattern":"meteor","intensity":1}]}`},
		{"chaos needs faults", `{"hosts":4,"fleets":[{"kind":"flat","count":2}],"chaos":[{"pattern":"flaky-resume","intensity":1}]}`},
		{"bad fault rate", `{"hosts":4,"fleets":[{"kind":"flat","count":2}],"faults":{"rate":2}}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseScenario([]byte(tc.in)); err == nil {
				t.Errorf("accepted %s", tc.name)
			}
		})
	}
}
