package script

import (
	"strings"
	"testing"
	"time"
)

func TestParseTarget(t *testing.T) {
	cases := []struct {
		in     string
		lo, hi int
		bad    bool
	}{
		{in: "host-17", lo: 17, hi: 17},
		{in: "host-1", lo: 1, hi: 1},
		{in: "host-3..7", lo: 3, hi: 7},
		{in: "host-5..5", lo: 5, hi: 5},
		{in: "node-3", bad: true},
		{in: "host-", bad: true},
		{in: "host-a", bad: true},
		{in: "host-3..", bad: true},
		{in: "host-7..3", bad: true},
		{in: "", bad: true},
	}
	for _, c := range cases {
		lo, hi, err := ParseTarget(c.in)
		if c.bad {
			if err == nil {
				t.Errorf("ParseTarget(%q) accepted", c.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseTarget(%q): %v", c.in, err)
			continue
		}
		if lo != c.lo || hi != c.hi {
			t.Errorf("ParseTarget(%q) = %d..%d, want %d..%d", c.in, lo, hi, c.lo, c.hi)
		}
	}
}

func TestEventValidate(t *testing.T) {
	const hosts = 8
	good := []Event{
		{Action: ActionCrash, Host: 1},
		{Action: ActionCrash, Host: 3, HostTo: 7, Repair: time.Hour},
		{Action: ActionMaintenance, Host: 8},
		{Action: ActionMaintenanceEnd, Host: 8},
		{Action: ActionPowerCap, Watts: 2000},
		{Action: ActionPowerCap, Watts: 0}, // uncap
		{Action: ActionDemandSurge, Factor: 3, Fleet: "web"},
		{Action: ActionFaultRate, Rate: 0.5},
		{Action: ActionWakeFail, Prob: 1},
		{Action: ActionCtrlDegrade, Delay: 100 * time.Millisecond, Loss: 0.1},
		{Action: ActionCtrlPartition, Duration: time.Minute},
	}
	for _, e := range good {
		if err := e.Validate(hosts); err != nil {
			t.Errorf("%v rejected: %v", e, err)
		}
	}
	bad := []Event{
		{Action: "reboot"},
		{Action: ActionCrash, Host: 0},
		{Action: ActionCrash, Host: 9},
		{Action: ActionCrash, Host: 5, HostTo: 3},
		{Action: ActionCrash, Host: 1, Repair: -time.Second},
		{Action: ActionCrash, Host: 1, At: -time.Hour},
		{Action: ActionMaintenance, Host: 1, Duration: -time.Minute},
		{Action: ActionPowerCap, Watts: -1},
		{Action: ActionDemandSurge, Factor: 0},
		{Action: ActionFaultRate, Rate: 1.5},
		{Action: ActionWakeFail, Prob: -0.1},
		{Action: ActionCtrlDegrade, Delay: -time.Second},
		{Action: ActionCtrlDegrade, Loss: 2},
		{Action: ActionCtrlPartition}, // no duration
	}
	for _, e := range bad {
		if err := e.Validate(hosts); err == nil {
			t.Errorf("%+v accepted", e)
		}
	}
}

func TestEventNeeds(t *testing.T) {
	if !(Event{Action: ActionFaultRate}).NeedsFaults() || !(Event{Action: ActionWakeFail}).NeedsFaults() {
		t.Fatal("fault events should need the injector")
	}
	if !(Event{Action: ActionCtrlDegrade}).NeedsCtrlPlane() || !(Event{Action: ActionCtrlPartition}).NeedsCtrlPlane() {
		t.Fatal("ctrl events should need the plane")
	}
	if (Event{Action: ActionCrash}).NeedsFaults() || (Event{Action: ActionCrash}).NeedsCtrlPlane() {
		t.Fatal("crash needs neither subsystem")
	}
}

func TestEventString(t *testing.T) {
	cases := []struct {
		e    Event
		want string
	}{
		{Event{At: 2 * time.Hour, Action: ActionCrash, Host: 17}, "2h0m0s crash host-17"},
		{Event{Action: ActionMaintenance, Host: 3, HostTo: 7}, "0s maintenance host-3..7"},
		{Event{At: time.Hour, Action: ActionPowerCap, Watts: 5000, Duration: 2 * time.Hour},
			"1h0m0s power-cap 5000W for 2h0m0s"},
		{Event{Action: ActionDemandSurge, Factor: 2.5, Fleet: "web"}, `0s demand-surge ×2.5 fleet="web"`},
	}
	for _, c := range cases {
		if got := c.e.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestAssertionValidate(t *testing.T) {
	good := []Assertion{
		{Kind: KindNoStrandedVM},
		{Kind: KindNoStrandedVM, Over: 10 * time.Minute, From: time.Hour, Until: 2 * time.Hour},
		{Kind: KindPowerBelow, Watts: 9000},
		{Kind: KindNoPendingVM, Over: time.Minute},
		{Kind: KindActiveHostsMin, Count: 2},
		{Kind: KindSLAViolationMax, Frac: 0.01},
		{Kind: KindSatisfactionMin, Frac: 0.99},
		{Kind: KindEnergyBelow, KWh: 100},
	}
	for _, a := range good {
		if err := a.Validate(); err != nil {
			t.Errorf("%v rejected: %v", a, err)
		}
	}
	bad := []Assertion{
		{Kind: "always-green"},
		{Kind: KindNoStrandedVM, Over: -time.Second},
		{Kind: KindNoStrandedVM, From: 2 * time.Hour, Until: time.Hour},
		{Kind: KindPowerBelow},
		{Kind: KindActiveHostsMin},
		{Kind: KindSLAViolationMax, Frac: 1.5},
		{Kind: KindSatisfactionMin, Frac: -0.1},
		{Kind: KindEnergyBelow},
	}
	for _, a := range bad {
		if err := a.Validate(); err == nil {
			t.Errorf("%+v accepted", a)
		}
	}
}

func TestAssertionContinuousAndLimit(t *testing.T) {
	cont := map[string]bool{
		KindNoStrandedVM:    true,
		KindPowerBelow:      true,
		KindNoPendingVM:     true,
		KindActiveHostsMin:  true,
		KindSLAViolationMax: false,
		KindSatisfactionMin: false,
		KindEnergyBelow:     false,
	}
	for kind, want := range cont {
		if got := (Assertion{Kind: kind}).Continuous(); got != want {
			t.Errorf("Continuous(%s) = %v, want %v", kind, got, want)
		}
	}
	a := Assertion{Kind: KindPowerBelow, Watts: 1234}
	if a.Limit() != 1234 {
		t.Fatalf("Limit = %v", a.Limit())
	}
	if got := a.String(); !strings.Contains(got, "1234") {
		t.Fatalf("String() = %q misses bound", got)
	}
	withGrace := Assertion{Kind: KindNoStrandedVM, Over: 10 * time.Minute}
	if got := withGrace.String(); !strings.Contains(got, "over 10m") {
		t.Fatalf("String() = %q misses grace", got)
	}
}
