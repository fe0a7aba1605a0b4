// Command sweep regenerates the paper's evaluation: every table and
// figure (T1, F2–F10, T2) plus the design-choice ablations.
//
// Usage:
//
//	sweep -exp all            # full reproduction (paper-scale)
//	sweep -exp f5 -quick      # one experiment, small/fast mode
//	sweep -list               # list experiment IDs
package main

import (
	"flag"
	"fmt"
	"os"

	"agilepower/internal/experiments"
	"agilepower/internal/prof"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (see -list) or 'all'")
	quick := flag.Bool("quick", false, "shrink horizons and fleets for a fast run")
	seed := flag.Uint64("seed", 1, "workload generation seed")
	svgDir := flag.String("svg", "", "also write SVG figures into this directory")
	parallel := flag.Int("parallel", 0, "max concurrent simulations (0 = GOMAXPROCS, 1 = sequential); output is identical for every value")
	ctrlDelay := flag.Duration("ctrlplane-delay", 0, "mean one-way management-network delay for cluster experiments (0 with zero loss = no control plane)")
	ctrlLoss := flag.Float64("ctrlplane-loss", 0, "per-leg management-network loss probability in [0,1]")
	telemetryCap := flag.Int("telemetry-cap", 0, "bound each recorded time series to this many stored samples (0 = experiment default)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	tracePath := flag.String("trace", "", "write a runtime execution trace to this file (inspect with `go tool trace`)")
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}
	if *svgDir != "" {
		if err := os.MkdirAll(*svgDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "sweep:", err)
			os.Exit(1)
		}
	}
	stopProf, err := prof.Start(*cpuProfile, *memProfile, *tracePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
	health := &experiments.Health{}
	opts := experiments.Options{
		Quick: *quick, Seed: *seed, SVGDir: *svgDir, Workers: *parallel,
		CtrlDelay: *ctrlDelay, CtrlLoss: *ctrlLoss,
		TelemetryCap: *telemetryCap,
		Health:       health,
	}
	if *exp == "all" {
		// Long runs stay observable: per-experiment wall times go to
		// stderr while the stitched report goes to stdout.
		opts.Progress = os.Stderr
		err = experiments.RunAll(os.Stdout, opts)
	} else {
		err = experiments.Run(*exp, os.Stdout, opts)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
	if err := stopProf(); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
	if health.Unhealthy() {
		fmt.Fprintln(os.Stderr, "sweep:", health.Summary())
		os.Exit(3)
	}
}
