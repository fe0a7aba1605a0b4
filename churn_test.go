package agilepower

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
)

func churnScenario(policy Policy) Scenario {
	return Scenario{
		Name:    "churn-test",
		Hosts:   8,
		VMs:     ConstantFleet(8, 0.5),
		Horizon: 12 * time.Hour,
		Manager: ManagerConfig{Policy: policy},
		Churn: &ChurnSpec{
			ArrivalsPerHour: 6,
			MeanLifetime:    2 * time.Hour,
			DemandCores:     1,
		},
	}
}

func TestChurnSpecValidate(t *testing.T) {
	bad := ChurnSpec{ArrivalsPerHour: -1}
	if err := bad.Validate(); err == nil {
		t.Fatal("accepted negative arrival rate")
	}
	sc := churnScenario(DPMS3)
	sc.Churn = &bad
	if _, err := sc.Run(); err == nil {
		t.Fatal("Run accepted invalid churn")
	}
}

// TestChurnSpecValidateRefusesRunawayRates pins the rates whose mean
// arrival gap rounds to 0 ns (or is no number at all): a run with one
// would never leave simulated time 0, so Validate must refuse it and
// name the rate. The largest rate with a 1 ns gap still passes.
func TestChurnSpecValidateRefusesRunawayRates(t *testing.T) {
	for _, tc := range []struct {
		name string
		rate float64
		ok   bool
	}{
		{"nan", math.NaN(), false},
		{"+inf", math.Inf(1), false},
		{"just above 3.6e12", math.Nextafter(3.6e12, math.Inf(1)), false},
		{"7.2e12", 7.2e12, false},
		{"3.6e12", 3.6e12, true},
		{"zero", 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := (&ChurnSpec{ArrivalsPerHour: tc.rate}).Validate()
			if tc.ok {
				if err != nil {
					t.Fatalf("refused rate %v: %v", tc.rate, err)
				}
				return
			}
			if err == nil {
				t.Fatalf("accepted rate %v", tc.rate)
			}
			if want := fmt.Sprint(tc.rate); !strings.Contains(err.Error(), want) {
				t.Fatalf("error %q does not name the rate %s", err, want)
			}
		})
	}
}

func TestChurnArrivalsPlacedAndDeparted(t *testing.T) {
	res, err := churnScenario(DPMS3).Run()
	if err != nil {
		t.Fatal(err)
	}
	// ~72 expected arrivals over 12h at 6/h.
	if res.Churn.Arrived < 40 || res.Churn.Arrived > 110 {
		t.Fatalf("arrived = %d, want ~72", res.Churn.Arrived)
	}
	if res.Churn.Placed == 0 {
		t.Fatal("no arrivals were placed")
	}
	if res.Churn.Departed == 0 {
		t.Fatal("no VMs departed")
	}
	if res.Manager.Provisioned != res.Churn.Placed {
		t.Fatalf("manager provisioned %d but cluster placed %d",
			res.Manager.Provisioned, res.Churn.Placed)
	}
	// Provisioning is fast when capacity is awake or wakes in seconds:
	// p95 within one control period + a wake.
	if res.Churn.ProvisionP95 > 10*time.Minute {
		t.Fatalf("p95 provision latency = %v", res.Churn.ProvisionP95)
	}
	if res.Churn.ProvisionP50 > res.Churn.ProvisionP95 || res.Churn.ProvisionP95 > res.Churn.ProvisionMax {
		t.Fatalf("latency percentiles disordered: %+v", res.Churn)
	}
}

func TestChurnUnderStaticPolicyStillProvisions(t *testing.T) {
	// Provisioning is basic duty even for the static (no-optimization)
	// baseline.
	res, err := churnScenario(Static).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Churn.Placed == 0 {
		t.Fatal("static policy never placed arrivals")
	}
	if res.Migrations.Completed != 0 || res.Sleeps != 0 {
		t.Fatal("static policy took optimization actions")
	}
}

func TestChurnDeterministic(t *testing.T) {
	a, err := churnScenario(DPMS3).Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := churnScenario(DPMS3).Run()
	if err != nil {
		t.Fatal(err)
	}
	if a.Churn != b.Churn || a.Energy != b.Energy {
		t.Fatalf("churn runs diverged: %+v vs %+v", a.Churn, b.Churn)
	}
}

func TestNoChurnZeroStats(t *testing.T) {
	res, err := smallScenario().Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Churn != (ChurnStats{}) {
		t.Fatalf("churn stats nonzero without churn: %+v", res.Churn)
	}
}
