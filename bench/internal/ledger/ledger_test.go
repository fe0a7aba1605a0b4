package ledger

import (
	"path/filepath"
	"reflect"
	"testing"
)

func TestHighestPercentile(t *testing.T) {
	for n, want := range map[int]float64{
		0: 0, 19: 0, 20: 50, 99: 50, 100: 90, 199: 90, 200: 95, 999: 95, 1000: 99, 10000: 99.9,
	} {
		if got := HighestPercentile(n); got != want {
			t.Errorf("HighestPercentile(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := Quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("Quartiles(1..10) = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := Quartiles([]float64{4, 1, 2}); q1 != 1 || q3 != 4 {
		t.Errorf("Quartiles(1,2,4) = %v, %v; want 1, 4", q1, q3)
	}
}

func TestAppendReadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "records.jsonl")
	recs := []Record{
		{Schema: SchemaVersion, Workload: "a", Seed: 1, Metrics: map[string]Metric{"wall_s": {1.5, "s"}}, Digests: []string{"x"}},
		{Schema: SchemaVersion, Workload: "b", Seed: 2, Samples: map[string][]float64{"wall_s": {1, 2}}},
	}
	for _, r := range recs {
		if err := Append(path, r); err != nil {
			t.Fatal(err)
		}
	}
	got, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Errorf("read back %+v, want %+v", got, recs)
	}
}
