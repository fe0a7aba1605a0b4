// Command powerbench characterizes server power states: the prototype
// measurements of the paper's first half (T1 table, F2 suspend/resume
// trace, F3 break-even analysis), driven against the calibrated state
// machine. Calibration parameters can be overridden to explore other
// platforms.
//
// Usage:
//
//	powerbench                          # T1 + F2 + F3 with defaults
//	powerbench -exp f3 -s3-exit 30s     # break-even with a slower S3
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"agilepower/internal/experiments"
	"agilepower/internal/parallel"
	"agilepower/internal/power"
	"agilepower/internal/prof"
)

func main() {
	exp := flag.String("exp", "all", "t1, f2, f3 or all")
	seed := flag.Uint64("seed", 1, "simulation seed")
	workers := flag.Int("parallel", 0, "max concurrent experiments (0 = GOMAXPROCS, 1 = sequential); output is identical for every value")
	peak := flag.Float64("peak-w", 250, "S0 peak power (W)")
	idle := flag.Float64("idle-w", 150, "S0 idle power (W)")
	deepIdle := flag.Float64("deepidle-w", 120, "C6 deep-idle power (W), 0 to disable")
	s3Power := flag.Float64("s3-w", 12, "S3 power (W)")
	s3Entry := flag.Duration("s3-entry", 8*time.Second, "S3 entry latency")
	s3Exit := flag.Duration("s3-exit", 15*time.Second, "S3 exit latency")
	s5Power := flag.Float64("s5-w", 4, "S5 power (W)")
	s5Entry := flag.Duration("s5-entry", 45*time.Second, "S5 entry latency")
	s5Exit := flag.Duration("s5-exit", 190*time.Second, "S5 exit latency")
	ctrlDelay := flag.Duration("ctrlplane-delay", 0, "mean one-way management-network delay for the ctrl experiment (0 with zero loss = no control plane)")
	ctrlLoss := flag.Float64("ctrlplane-loss", 0, "per-leg management-network loss probability in [0,1]")
	shards := flag.Int("shards", 0, "shard each simulation's evaluation tick across this many host ranges (0/1 = serial); output is identical for every value")
	telemetryCap := flag.Int("telemetry-cap", 0, "bound each recorded time series to this many stored samples (0 = experiment default)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	tracePath := flag.String("trace", "", "write a runtime execution trace to this file (inspect with `go tool trace`)")
	flag.Parse()

	stopProf, err := prof.Start(*cpuProfile, *memProfile, *tracePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "powerbench:", err)
		os.Exit(1)
	}

	profile := power.DefaultProfile()
	profile.PeakPower = power.Watts(*peak)
	profile.IdlePower = power.Watts(*idle)
	profile.DeepIdlePower = power.Watts(*deepIdle)
	s3 := profile.Sleep[power.S3]
	s3.Power = power.Watts(*s3Power)
	s3.EntryLatency = *s3Entry
	s3.ExitLatency = *s3Exit
	profile.Sleep[power.S3] = s3
	s5 := profile.Sleep[power.S5]
	s5.Power = power.Watts(*s5Power)
	s5.EntryLatency = *s5Entry
	s5.ExitLatency = *s5Exit
	profile.Sleep[power.S5] = s5
	if err := profile.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "powerbench: invalid calibration:", err)
		os.Exit(1)
	}

	opts := experiments.Options{
		Seed: *seed, Profile: profile, Workers: *workers,
		CtrlDelay: *ctrlDelay, CtrlLoss: *ctrlLoss,
		Shards: *shards, TelemetryCap: *telemetryCap,
	}
	ids := []string{"t1", "f2", "f3"}
	if *exp != "all" {
		ids = []string{*exp}
	}
	for _, id := range ids {
		switch id {
		// ctrl is the cluster-under-imperfect-control-plane grid — the
		// counterpart characterization for the management network; the
		// -ctrlplane-* flags add an extra row to its delay×loss grid.
		// scale is the datacenter-size run the -shards flag exists for;
		// hyper is the 100k-host run the -telemetry-cap flag exists
		// for.
		case "t1", "f2", "f3", "ctrl", "scale", "hyper":
		default:
			fmt.Fprintf(os.Stderr, "powerbench: unknown experiment %q (want t1, f2, f3, ctrl, scale, hyper)\n", id)
			os.Exit(1)
		}
	}
	// Each experiment renders into its own buffer; stitching in id
	// order keeps stdout identical for every worker count.
	bufs, err := parallel.Map(context.Background(), len(ids), *workers,
		func(_ context.Context, i int) (*bytes.Buffer, error) {
			var buf bytes.Buffer
			fmt.Fprintf(&buf, "\n=== %s ===\n", ids[i])
			if err := experiments.Run(ids[i], &buf, opts); err != nil {
				return nil, err
			}
			return &buf, nil
		})
	if err != nil {
		fmt.Fprintln(os.Stderr, "powerbench:", err)
		os.Exit(1)
	}
	for _, buf := range bufs {
		os.Stdout.Write(buf.Bytes())
	}
	if err := stopProf(); err != nil {
		fmt.Fprintln(os.Stderr, "powerbench:", err)
		os.Exit(1)
	}
}
