// Command scenario validates and runs declarative scenario files —
// the JSON format with fleets, manager knobs, churn, event scripts,
// assertions, and chaos patterns that the simulation service also
// accepts on POST /v1/scenarios.
//
// Usage:
//
//	scenario validate scenarios/*.json      # parse + static checks, no run
//	scenario run scenarios/az-outage.json   # execute, print report + verdicts
//	scenario run -policy all scenarios/mixed-day.json   # compare the full policy set
//	scenario run -csv series.csv file.json  # also dump the power/demand series
//
// Exit codes: 0 on success, 1 on usage/parse/run errors, 2 when the
// run finished but an assertion failed or VMs ended stranded — so a
// scenario file doubles as a deterministic integration test in CI.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"agilepower"
	"agilepower/internal/report"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(1)
	}
	switch os.Args[1] {
	case "validate":
		os.Exit(cmdValidate(os.Args[2:], os.Stdout, os.Stderr))
	case "run":
		os.Exit(cmdRun(os.Args[2:], os.Stdout, os.Stderr))
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "scenario: unknown subcommand %q\n\n", os.Args[1])
		usage()
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  scenario validate <file.json>...   parse + static checks, no run
  scenario run [flags] <file.json>   execute and print report + assertion verdicts

run flags:
  -policy name   override the file's policy (static, nopm-drm, dpm-s5, dpm-s3, all)
  -horizon d     override the file's horizon (e.g. 6h)
  -quick         cap the horizon at 6h (CI smoke mode)
  -csv path      write the last policy's power/demand/active-host series as CSV
`)
}

// load reads and parses one scenario file.
func load(path string) (agilepower.Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return agilepower.Scenario{}, err
	}
	return agilepower.ParseScenario(data)
}

// cmdValidate parses every file and reports per-file verdicts. Any
// failure makes the whole invocation exit 1.
func cmdValidate(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprintln(stderr, "scenario validate: no files given")
		return 1
	}
	bad := 0
	for _, path := range args {
		sc, err := load(path)
		if err != nil {
			fmt.Fprintf(stdout, "FAIL %s: %v\n", path, err)
			bad++
			continue
		}
		fmt.Fprintf(stdout, "ok   %s (%d hosts, %d vms, %d events, %d asserts)\n",
			path, scHosts(sc), len(sc.VMs), len(sc.Script), len(sc.Asserts))
	}
	if bad > 0 {
		fmt.Fprintf(stderr, "scenario: %d of %d files failed validation\n", bad, len(args))
		return 1
	}
	return 0
}

func scHosts(sc agilepower.Scenario) int {
	if len(sc.HostClasses) == 0 {
		return sc.Hosts
	}
	n := 0
	for _, hc := range sc.HostClasses {
		n += hc.Count
	}
	return n
}

// cmdRun executes the scenario and prints the standard report, each
// policy's saving against the first, the oracle bound, and one verdict
// line per assertion. Exit 2 on failed assertions or stranded VMs;
// exit 1 on errors.
func cmdRun(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("scenario run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	policyName := fs.String("policy", "", "override the file's policy (or 'all')")
	horizon := fs.Duration("horizon", 0, "override the file's horizon")
	quick := fs.Bool("quick", false, "cap the horizon at 6h (CI smoke mode)")
	csvPath := fs.String("csv", "", "write the last policy's power/demand/active-host series CSV to this path")
	if err := fs.Parse(args); err != nil {
		return 1
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "scenario run: exactly one file expected")
		return 1
	}
	path := fs.Arg(0)
	sc, err := load(path)
	if err != nil {
		fmt.Fprintln(stderr, "scenario:", err)
		return 1
	}
	if *horizon > 0 {
		sc.Horizon = *horizon
	}
	if *quick && (sc.Horizon == 0 || sc.Horizon > 6*time.Hour) {
		sc.Horizon = 6 * time.Hour
	}
	policies, err := selectPolicies(sc, *policyName)
	if err != nil {
		fmt.Fprintln(stderr, "scenario:", err)
		return 1
	}
	results, err := sc.RunPolicies(policies)
	if err != nil {
		fmt.Fprintln(stderr, "scenario:", err)
		return 1
	}

	tbl := report.NewTable(
		fmt.Sprintf("scenario %s (%s)", sc.Name, path),
		"policy", "energy_kwh", "mean_w", "satisfaction", "violation_frac",
		"migrations", "sleeps", "wakes", "crashes", "stranded")
	for _, r := range results {
		tbl.AddRow(r.Policy, r.EnergyKWh(), r.MeanPowerW, r.Satisfaction,
			r.ViolationFraction, r.Migrations.Completed, r.Sleeps, r.Wakes,
			r.Crashes, r.StrandedVMs)
	}
	if err := tbl.Write(stdout); err != nil {
		fmt.Fprintln(stderr, "scenario:", err)
		return 1
	}
	base, last := results[0], results[len(results)-1]
	for _, r := range results[1:] {
		fmt.Fprintf(stdout, "%s saves %.1f%% vs %s\n", r.Policy, 100*r.SavingsVs(base), base.Policy)
	}
	if oracleE, err := last.OracleEnergy(); err == nil {
		fmt.Fprintf(stdout, "oracle (zero-latency DPM) bound: %.2f kWh\n", oracleE.KWh())
	}
	if *csvPath != "" {
		if err := writeCSV(*csvPath, last); err != nil {
			fmt.Fprintln(stderr, "scenario:", err)
			return 1
		}
		fmt.Fprintf(stdout, "series for %s written to %s\n", last.Policy, *csvPath)
	}

	failures, stranded := 0, 0
	for _, r := range results {
		for _, ar := range r.Assertions {
			fmt.Fprintf(stdout, "%s  %s\n", r.Policy, ar)
		}
		failures += r.AssertionFailures
		stranded += r.StrandedVMs
	}
	if failures > 0 || stranded > 0 {
		fmt.Fprintf(stderr, "scenario: %s unhealthy: %d failed assertion(s), %d stranded VM(s)\n",
			path, failures, stranded)
		return 2
	}
	return 0
}

// writeCSV writes one run's demand, power, delivered and active-host
// series to path.
func writeCSV(path string, r *agilepower.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := report.MultiSeriesCSV(f, r.Demand, r.Power, r.Delivered, r.ActiveHosts); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func selectPolicies(sc agilepower.Scenario, name string) ([]agilepower.Policy, error) {
	if name == "" {
		// The file's policy (already materialized into the scenario);
		// files without one get the paper's headline policy.
		p := sc.Manager.Policy
		if p.Name == "" {
			p = agilepower.DPMS3
		}
		return []agilepower.Policy{p}, nil
	}
	if name == "all" {
		return agilepower.Policies(), nil
	}
	for _, p := range agilepower.Policies() {
		if strings.EqualFold(p.Name, name) {
			return []agilepower.Policy{p}, nil
		}
	}
	return nil, fmt.Errorf("unknown policy %q (want static, nopm-drm, dpm-s5, dpm-s3, all)", name)
}
