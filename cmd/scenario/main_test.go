package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"agilepower"
)

// writeScenario writes body to a scenario file in a fresh temp
// directory and returns its path.
func writeScenario(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "scenario.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// small is a healthy one-hour scenario that runs in milliseconds.
const small = `{"name":"small","hosts":2,"fleets":[{"kind":"flat","count":2,"demand":0.5}],"horizonHours":1%s}`

func TestSelectPolicies(t *testing.T) {
	var sc agilepower.Scenario
	all, err := selectPolicies(sc, "all")
	if err != nil || len(all) != 4 {
		t.Fatalf("all → %d policies, err=%v", len(all), err)
	}
	one, err := selectPolicies(sc, "DPM-S5") // case-insensitive
	if err != nil || len(one) != 1 || one[0].Name != "dpm-s5" {
		t.Fatalf("DPM-S5 → %+v, err=%v", one, err)
	}
	if _, err := selectPolicies(sc, "yolo"); err == nil || !strings.Contains(err.Error(), "unknown policy") {
		t.Fatalf("unknown policy: err=%v", err)
	}
}

// TestRunUsesFilePolicy runs a file that names dpm-s5 without -policy:
// the report must hold a dpm-s5 row and no other policy, so no flag
// default can override the file's policy.
func TestRunUsesFilePolicy(t *testing.T) {
	var stdout bytes.Buffer
	path := writeScenario(t, fmt.Sprintf(small, `,"policy":"dpm-s5"`))
	if code := cmdRun([]string{path}, &stdout, io.Discard); code != 0 {
		t.Fatalf("exit %d:\n%s", code, stdout.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "\ndpm-s5 ") {
		t.Fatalf("no dpm-s5 row:\n%s", out)
	}
	for _, other := range []string{"static", "nopm-drm", "dpm-s3"} {
		if strings.Contains(out, "\n"+other+" ") {
			t.Fatalf("unexpected %s row:\n%s", other, out)
		}
	}
}

// TestExitCodes pins the codes scripts and CI rely on: 0 for a healthy
// file, 1 for an unreadable or unparsable file or an unknown policy,
// and 2 for a run whose assertion failed.
func TestExitCodes(t *testing.T) {
	healthy := writeScenario(t, fmt.Sprintf(small, ""))
	unparsable := writeScenario(t, `{"hosts":2,"fleets":[{"kind":"flat","count":2}],"telemtryCap":5}`)
	failing := writeScenario(t, fmt.Sprintf(small, `,"assert":[{"kind":"power-below","watts":1}]`))
	missing := filepath.Join(t.TempDir(), "missing.json")
	for _, tc := range []struct {
		name string
		cmd  func([]string, io.Writer, io.Writer) int
		args []string
		want int
	}{
		{"validate healthy", cmdValidate, []string{healthy}, 0},
		{"validate unparsable", cmdValidate, []string{healthy, unparsable}, 1},
		{"validate missing", cmdValidate, []string{missing}, 1},
		{"validate no files", cmdValidate, nil, 1},
		{"run healthy", cmdRun, []string{healthy}, 0},
		{"run unparsable", cmdRun, []string{unparsable}, 1},
		{"run unknown policy", cmdRun, []string{"-policy", "yolo", healthy}, 1},
		{"run failing assertion", cmdRun, []string{failing}, 2},
		{"run two files", cmdRun, []string{healthy, healthy}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.cmd(tc.args, io.Discard, io.Discard); got != tc.want {
				t.Fatalf("exit %d, want %d", got, tc.want)
			}
		})
	}
}

// TestRunSeriesCSV checks that -csv writes a header naming the four
// series and one row per recorded sample of the run.
func TestRunSeriesCSV(t *testing.T) {
	path := writeScenario(t, fmt.Sprintf(small, ""))
	csvPath := filepath.Join(t.TempDir(), "series.csv")
	var stdout bytes.Buffer
	if code := cmdRun([]string{"-csv", csvPath, path}, &stdout, io.Discard); code != 0 {
		t.Fatalf("exit %d:\n%s", code, stdout.String())
	}
	if !strings.Contains(stdout.String(), "series for dpm-s3 written to "+csvPath) {
		t.Fatalf("no confirmation line:\n%s", stdout.String())
	}
	raw, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := load(path)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	header := strings.Join([]string{"offset_seconds",
		res.Demand.Name, res.Power.Name, res.Delivered.Name, res.ActiveHosts.Name}, ",")
	if lines[0] != header {
		t.Fatalf("header = %q, want %q", lines[0], header)
	}
	if rows := len(lines) - 1; rows != res.Demand.Len() || rows < 2 {
		t.Fatalf("csv rows = %d, want one per sample (%d)", rows, res.Demand.Len())
	}
}

// TestBuildFleetKinds loads a file of each fleet kind: every kind must
// build its count of VMs, each with a demand trace, and an unknown kind
// must be refused.
func TestBuildFleetKinds(t *testing.T) {
	for _, fleet := range []string{
		`{"kind":"diurnal","count":10}`,
		`{"kind":"spiky","count":10}`,
		`{"kind":"batch","count":10}`,
		`{"kind":"mixed","count":10}`,
		`{"kind":"workday","count":10}`,
		`{"kind":"flat","count":10,"demand":1.5}`,
		`{"kind":"replicated","services":5,"replicas":2}`,
	} {
		sc, err := load(writeScenario(t, `{"hosts":4,"fleets":[`+fleet+`]}`))
		if err != nil {
			t.Fatalf("%s: %v", fleet, err)
		}
		if len(sc.VMs) != 10 {
			t.Fatalf("%s: fleet size = %d, want 10", fleet, len(sc.VMs))
		}
		for _, v := range sc.VMs {
			if v.Trace == nil {
				t.Fatalf("%s: VM %s has no trace", fleet, v.Name)
			}
		}
	}
	if _, err := load(writeScenario(t, `{"hosts":4,"fleets":[{"kind":"nope","count":4}]}`)); err == nil {
		t.Fatal("unknown fleet kind accepted")
	}
}

// TestScenarioLibraryMatchesGolden runs every file in scenarios/ under
// -policy all, through the same code path as `scenario run`, and
// compares the report with its golden in testdata/. The goldens are the
// command's stdout from the repository root:
//
//	go run ./cmd/scenario run -policy all scenarios/ops-day.json > cmd/scenario/testdata/ops-day.golden
//
// Two of the files (ops-day and control-partition) run a lossy control
// plane, so a change to message ordering in the engine or the plane
// shows here as well as in the experiment goldens.
func TestScenarioLibraryMatchesGolden(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir("../.."); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	})
	files, err := filepath.Glob("scenarios/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no scenario files found")
	}
	for _, path := range files {
		name := strings.TrimSuffix(filepath.Base(path), ".json")
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("cmd/scenario/testdata", name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			var stdout, stderr bytes.Buffer
			if code := cmdRun([]string{"-policy", "all", path}, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d: %s", code, stderr.String())
			}
			got := stdout.Bytes()
			if bytes.Equal(got, want) {
				return
			}
			gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
			for i := 0; i < len(gl) && i < len(wl); i++ {
				if gl[i] != wl[i] {
					t.Fatalf("line %d differs:\n got  %q\n want %q", i+1, gl[i], wl[i])
				}
			}
			t.Fatalf("report has %d lines, golden %d", len(gl), len(wl))
		})
	}
}
