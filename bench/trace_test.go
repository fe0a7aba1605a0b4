package main

import (
	"math"
	"os"
	"testing"
)

func TestAttributeChargesSamplesToLayers(t *testing.T) {
	f, err := os.Open("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := attribute(f)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"manager_completion": 0.60, // drain replanning and its rejected StartMigration calls
		"cluster_eval":       0.12, // power stats under the evaluation tick
		"manager_forecast":   0.15, // wakeCheck's forecast upkeep
		"manager_step":       0.15, // the control step and a host-settled callback
		"gc":                 0.07, // background marking and a mark assist
		"dispatch":           0.06,
		"service":            0.06, // net/http alone, and the cache under a handler
		"migrate_ctrl":       0.04,
		"script":             0.03,
		"world":              0.03, // Fork's host cloning and a fleet generator
		"report":             0.03,
		"other":              0.01,
		"errorf":             0.20,
		"total":              1.35,
	}
	for k, w := range want {
		if math.Abs(got[k]-w) > 1e-9 {
			t.Errorf("%s = %.3fs, want %.3fs", k, got[k], w)
		}
	}
	sum := 0.0
	for _, l := range cpuLayers {
		sum += got[l]
	}
	if math.Abs(sum-got["total"]) > 1e-9 {
		t.Errorf("layers sum to %.3fs, total is %.3fs", sum, got["total"])
	}
}

func TestParseDuration(t *testing.T) {
	for in, want := range map[string]float64{"10ms": 0.01, "1.20s": 1.2, "2.50mins": 150, "750us": 0.00075} {
		got, err := parseDuration(in)
		if err != nil || math.Abs(got-want) > 1e-12 {
			t.Errorf("parseDuration(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := parseDuration("12"); err == nil {
		t.Error("parseDuration accepted a value without a unit")
	}
}
