package agilepower

import (
	"math"
	"math/big"
	"testing"
)

// wrapCount is 2^62: four of them wrap an int64 sum back to zero, and two
// of them already pass any budget a server would set.
const wrapCount = 1 << 62

// TestScenarioFileTotalHosts pins the admission count for hosts at its
// edges: the homogeneous count and the class sum are bounded by the
// budget, a negative count is refused wherever it appears, and no
// combination of classes can wrap the sum back into the budget.
func TestScenarioFileTotalHosts(t *testing.T) {
	const limit = 8
	cases := []struct {
		name   string
		f      ScenarioFile
		n      int
		within bool
	}{
		{"no hosts", ScenarioFile{}, 0, true},
		{"hosts at budget", ScenarioFile{Hosts: 8}, 8, true},
		{"hosts past budget", ScenarioFile{Hosts: 9}, 0, false},
		{"negative hosts", ScenarioFile{Hosts: -1}, 0, false},
		{"classes at budget", ScenarioFile{HostClasses: []HostClassFile{{Count: 3}, {Count: 5}}}, 8, true},
		{"classes past budget", ScenarioFile{HostClasses: []HostClassFile{{Count: 3}, {Count: 6}}}, 0, false},
		{"classes replace hosts", ScenarioFile{Hosts: 100, HostClasses: []HostClassFile{{Count: 2}, {Count: 2}}}, 4, true},
		{"negative class offsets a large one", ScenarioFile{HostClasses: []HostClassFile{{Count: 12}, {Count: -4}}}, 0, false},
		{"wrapCount class offset by a negative one", ScenarioFile{HostClasses: []HostClassFile{{Count: wrapCount}, {Count: 4 - wrapCount}}}, 0, false},
		{"classes wrap", ScenarioFile{HostClasses: []HostClassFile{{Count: wrapCount}, {Count: wrapCount}, {Count: wrapCount}, {Count: wrapCount + 5}}}, 0, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n, within := tc.f.TotalHosts(limit)
			if n != tc.n || within != tc.within {
				t.Fatalf("TotalHosts(%d) = (%d, %v), want (%d, %v)", limit, n, within, tc.n, tc.within)
			}
		})
	}
}

// TestScenarioFileTotalVMs pins the admission count for VMs: each
// fleet counts at least one VM, a replicated fleet counts
// services×replicas (checked by division, so the product never
// overflows and zero services never divides), and negative or wrapping
// counts are refused.
func TestScenarioFileTotalVMs(t *testing.T) {
	const limit = 16
	fleets := func(ff ...FleetFile) ScenarioFile { return ScenarioFile{Fleets: ff} }
	cases := []struct {
		name   string
		f      ScenarioFile
		n      int
		within bool
	}{
		{"zero count counts one", fleets(FleetFile{Kind: "flat"}), 1, true},
		{"fleets at budget", fleets(FleetFile{Kind: "mixed", Count: 10}, FleetFile{Kind: "diurnal", Count: 6}), 16, true},
		{"fleets past budget", fleets(FleetFile{Kind: "mixed", Count: 10}, FleetFile{Kind: "diurnal", Count: 7}), 0, false},
		{"negative fleet count", fleets(FleetFile{Kind: "flat", Count: -3}), 0, false},
		{"mixed fleets wrap", fleets(FleetFile{Kind: "mixed", Count: wrapCount}, FleetFile{Kind: "mixed", Count: wrapCount},
			FleetFile{Kind: "mixed", Count: wrapCount}, FleetFile{Kind: "mixed", Count: wrapCount + 10}), 0, false},
		{"replicated product", fleets(FleetFile{Kind: "replicated", Services: 3, Replicas: 5}), 15, true},
		{"replicated ignores count", fleets(FleetFile{Kind: "replicated", Count: 50, Services: 2, Replicas: 3}), 6, true},
		{"replicated product past budget", fleets(FleetFile{Kind: "replicated", Services: 4, Replicas: 5}), 0, false},
		{"replicated product wraps", fleets(FleetFile{Kind: "replicated", Services: 1 << 32, Replicas: 1 << 32},
			FleetFile{Kind: "flat", Count: 2}), 0, false},
		{"negative services and replicas", fleets(FleetFile{Kind: "replicated", Services: -2, Replicas: -5}), 0, false},
		{"replicated with zero services", fleets(FleetFile{Kind: "replicated", Replicas: wrapCount}), 0, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n, within := tc.f.TotalVMs(limit)
			if n != tc.n || within != tc.within {
				t.Fatalf("TotalVMs(%d) = (%d, %v), want (%d, %v)", limit, n, within, tc.n, tc.within)
			}
		})
	}
}

// FuzzScenarioFileTotals checks both admission counts against exact
// arithmetic: a count is within the budget exactly when no input is
// negative and the true sum, computed without overflow, is at most the
// limit, and then it equals that sum.
func FuzzScenarioFileTotals(f *testing.F) {
	f.Add(int64(3), int64(5), int64(0), int64(2), int64(3), int64(16))
	f.Add(int64(3), int64(5), int64(0), int64(0), int64(0), int64(8))
	f.Add(int64(12), int64(-4), int64(0), int64(1), int64(1), int64(8))
	f.Add(int64(wrapCount), int64(wrapCount), int64(wrapCount), int64(wrapCount), int64(1), int64(math.MaxInt64))
	f.Add(int64(math.MaxInt64), int64(0), int64(0), int64(1), int64(1), int64(math.MaxInt64))
	f.Add(int64(1), int64(1), int64(1), int64(-2), int64(-5), int64(64))
	f.Add(int64(1), int64(1), int64(1), int64(1<<32), int64(1<<32), int64(64))
	f.Add(int64(0), int64(0), int64(0), int64(0), int64(math.MaxInt64), int64(0))
	f.Fuzz(func(t *testing.T, a, b, c, services, replicas, limit int64) {
		// The budget is a configured, non-negative int.
		lim := int(limit & math.MaxInt64)
		ia, ib, ic, is, ir := int(a), int(b), int(c), int(services), int(replicas)

		hosts := ScenarioFile{HostClasses: []HostClassFile{{Count: ia}, {Count: ib}, {Count: ic}}}
		n, within := hosts.TotalHosts(lim)
		checkTotal(t, "TotalHosts", n, within, lim, exactSum(ia, ib, ic), ia, ib, ic)

		vms := ScenarioFile{Fleets: []FleetFile{
			{Kind: "mixed", Count: ia},
			{Kind: "replicated", Services: is, Replicas: ir},
			{Kind: "flat", Count: ib},
		}}
		n, within = vms.TotalVMs(lim)
		sum := exactSum(max1(ia), max1(ib))
		sum.Add(sum, new(big.Int).Mul(big.NewInt(int64(is)), big.NewInt(int64(ir))))
		checkTotal(t, "TotalVMs", n, within, lim, sum, ia, ib, is, ir)
	})
}

// exactSum adds counts without overflow.
func exactSum(counts ...int) *big.Int {
	sum := new(big.Int)
	for _, c := range counts {
		sum.Add(sum, big.NewInt(int64(c)))
	}
	return sum
}

// checkTotal compares an admission count with the exact sum: within
// must hold exactly when no input is negative and the sum is at most
// limit, and n must then equal the sum, and be 0 otherwise.
func checkTotal(t *testing.T, what string, n int, within bool, limit int, sum *big.Int, inputs ...int) {
	t.Helper()
	want := sum.Cmp(big.NewInt(int64(limit))) <= 0
	for _, v := range inputs {
		if v < 0 {
			want = false
		}
	}
	if within != want {
		t.Fatalf("%s(%d) within = %v, want %v (inputs %v, exact sum %v)", what, limit, within, want, inputs, sum)
	}
	if want && int64(n) != sum.Int64() || !want && n != 0 {
		t.Fatalf("%s(%d) = %d, exact sum %v (inputs %v)", what, limit, n, sum, inputs)
	}
}
