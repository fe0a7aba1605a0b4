// Package migrate models pre-copy live migration of VMs between
// hosts, the mechanism the paper's management layer uses to
// consolidate load before parking servers. The model reproduces the
// properties the controller trades off against: duration proportional
// to memory over bandwidth (amplified by dirty-page re-copying), a
// short stop-and-copy downtime, CPU overhead on both endpoints, and a
// per-host concurrency limit.
package migrate

import (
	"fmt"
	"time"
)

// Model holds the parameters of the pre-copy migration algorithm.
type Model struct {
	// BandwidthGbps is the migration link speed (default 10 Gb/s).
	BandwidthGbps float64
	// DirtyFracPerSec is the fraction of the VM's memory dirtied per
	// second while it keeps running during pre-copy (default 0.02).
	DirtyFracPerSec float64
	// StopCopyThresholdGB — when the remaining dirty set is below this,
	// the VM is paused and the rest is copied (default 0.0625 = 64 MB).
	StopCopyThresholdGB float64
	// MaxIterations caps pre-copy rounds before forcing stop-and-copy
	// (default 30).
	MaxIterations int
	// CPUOverheadCores is the extra CPU consumed on both source and
	// destination while a migration is in flight (default 0.5).
	CPUOverheadCores float64
}

// DefaultModel returns the calibration used throughout the
// reproduction: 10 GbE migration network, 2%/s dirty rate, 64 MB
// stop-and-copy threshold.
func DefaultModel() Model {
	return Model{
		BandwidthGbps:       10,
		DirtyFracPerSec:     0.02,
		StopCopyThresholdGB: 0.0625,
		MaxIterations:       30,
		CPUOverheadCores:    0.5,
	}
}

// Validate checks the model parameters.
func (m Model) Validate() error {
	if m.BandwidthGbps <= 0 {
		return fmt.Errorf("migrate: bandwidth %v Gbps must be positive", m.BandwidthGbps)
	}
	if m.DirtyFracPerSec < 0 {
		return fmt.Errorf("migrate: negative dirty fraction %v", m.DirtyFracPerSec)
	}
	if m.StopCopyThresholdGB <= 0 {
		return fmt.Errorf("migrate: stop-copy threshold %v GB must be positive", m.StopCopyThresholdGB)
	}
	if m.MaxIterations < 1 {
		return fmt.Errorf("migrate: max iterations %d must be ≥1", m.MaxIterations)
	}
	if m.CPUOverheadCores < 0 {
		return fmt.Errorf("migrate: negative CPU overhead %v", m.CPUOverheadCores)
	}
	return nil
}

// Plan is the predicted cost of migrating one VM.
type Plan struct {
	// Duration is total wall time from start to switch-over.
	Duration time.Duration
	// Downtime is the stop-and-copy pause at the end, during which the
	// VM serves nothing.
	Downtime time.Duration
	// Iterations is the number of pre-copy rounds.
	Iterations int
	// TrafficGB is the total bytes moved.
	TrafficGB float64
}

// Plan simulates the pre-copy iteration schedule for a VM with memGB
// of memory and returns the predicted cost.
func (m Model) Plan(memGB float64) (Plan, error) {
	if err := m.Validate(); err != nil {
		return Plan{}, err
	}
	if memGB <= 0 {
		return Plan{}, ErrNonPositiveMemory
	}
	bwGBps := m.BandwidthGbps / 8
	dirtyGBps := m.DirtyFracPerSec * memGB

	remaining := memGB
	totalSecs := 0.0
	traffic := 0.0
	iters := 0
	for iters < m.MaxIterations {
		iters++
		t := remaining / bwGBps
		totalSecs += t
		traffic += remaining
		// Pages dirtied while this round was copying become the next
		// round's work, but never more than the whole memory.
		remaining = dirtyGBps * t
		if remaining > memGB {
			remaining = memGB
		}
		if remaining <= m.StopCopyThresholdGB {
			break
		}
		if dirtyGBps >= bwGBps {
			// Pre-copy cannot converge; force stop-and-copy with the
			// current dirty set.
			break
		}
	}
	downtimeSecs := remaining / bwGBps
	totalSecs += downtimeSecs
	traffic += remaining
	return Plan{
		Duration:   time.Duration(totalSecs * float64(time.Second)),
		Downtime:   time.Duration(downtimeSecs * float64(time.Second)),
		Iterations: iters,
		TrafficGB:  traffic,
	}, nil
}
