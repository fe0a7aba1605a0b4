// Package prof wires runtime/pprof and runtime/trace capture into the
// command-line tools, so hot-path work (the evaluate loop, the manager
// control step, the drain replan) can be profiled on real experiment
// runs rather than only in microbenchmarks.
package prof

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
)

// Start begins CPU profiling into cpuPath and execution tracing into
// tracePath (empty disables either) and returns a stop function that
// ends them and, when memPath is non-empty, writes a heap profile
// there. The execution trace is the tool for the experiment worker
// pool: `go tool trace` shows how the concurrently running simulations
// (one goroutine each) share the processors, which a sampling CPU
// profile flattens. Call stop exactly once, after the workload
// finishes and before exit.
func Start(cpuPath, memPath, tracePath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("prof: create cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("prof: start cpu profile: %w", err)
		}
	}
	var traceFile *os.File
	if tracePath != "" {
		traceFile, err = os.Create(tracePath)
		if err != nil {
			if cpuFile != nil {
				pprof.StopCPUProfile()
				cpuFile.Close()
			}
			return nil, fmt.Errorf("prof: create trace: %w", err)
		}
		if err := trace.Start(traceFile); err != nil {
			traceFile.Close()
			if cpuFile != nil {
				pprof.StopCPUProfile()
				cpuFile.Close()
			}
			return nil, fmt.Errorf("prof: start trace: %w", err)
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return fmt.Errorf("prof: close cpu profile: %w", err)
			}
		}
		if traceFile != nil {
			trace.Stop()
			if err := traceFile.Close(); err != nil {
				return fmt.Errorf("prof: close trace: %w", err)
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return fmt.Errorf("prof: create mem profile: %w", err)
			}
			defer f.Close()
			// Fold in everything still reachable so the heap profile
			// reflects steady-state retention, not GC timing.
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				return fmt.Errorf("prof: write mem profile: %w", err)
			}
		}
		return nil
	}, nil
}
