// Package vm models virtual machines: their resource sizing, their
// time-varying CPU demand (bound to a workload trace), and the
// service-level expectation against which delivered capacity is
// scored.
package vm

import (
	"fmt"
	"time"

	"agilepower/internal/workload"
)

// ID identifies a VM within a cluster.
type ID int

// VM is a virtual machine. Memory matters for migration cost; vCPUs
// cap how much CPU the VM can consume; the trace drives demand.
type VM struct {
	id   ID
	name string

	vcpus    float64 // maximum CPU consumption in cores
	memoryGB float64

	trace *workload.Trace

	// sloTarget is the fraction of demanded CPU the VM must receive to
	// be considered healthy (e.g. 0.95). Deliveries below the target
	// count as SLA violation time.
	sloTarget float64

	// shares weight the VM's claim under contention, hypervisor-style
	// (default 1000). A 2000-share VM gets twice the allocation of a
	// 1000-share VM per unit of demand when the host is oversubscribed.
	shares int

	// group names an anti-affinity group: VMs sharing a non-empty
	// group (replicas of one service) must never share a host, so one
	// host failure cannot take out the whole service. Consolidation
	// has to respect this — the availability constraint that caps how
	// tightly a cluster can pack.
	group string

	// reserved is the guaranteed CPU minimum in cores: under
	// contention the VM receives at least min(demand, reserved) before
	// shares divide the rest. Hosts admit VMs only while the sum of
	// reservations fits their capacity.
	reserved float64
	// limit caps delivered CPU below the vCPU count (0 = no extra
	// cap). The hypervisor triple: reservation / limit / shares.
	limit float64
}

// Config describes a VM to create.
type Config struct {
	Name     string
	VCPUs    float64
	MemoryGB float64
	Trace    *workload.Trace
	// SLOTarget defaults to 0.95 when zero.
	SLOTarget float64
	// Shares defaults to 1000 when zero.
	Shares int
	// Group is an optional anti-affinity group name: VMs sharing a
	// non-empty group are never co-located.
	Group string
	// ReservedCores guarantees a CPU minimum (default 0).
	ReservedCores float64
	// LimitCores caps delivered CPU below VCPUs (0 = uncapped).
	LimitCores float64
}

// New validates cfg and builds a VM with the given id.
func New(id ID, cfg Config) (*VM, error) {
	if cfg.VCPUs <= 0 {
		return nil, fmt.Errorf("vm %q: vcpus %v must be positive", cfg.Name, cfg.VCPUs)
	}
	if cfg.MemoryGB <= 0 {
		return nil, fmt.Errorf("vm %q: memory %v GB must be positive", cfg.Name, cfg.MemoryGB)
	}
	if cfg.Trace == nil {
		return nil, fmt.Errorf("vm %q: nil demand trace", cfg.Name)
	}
	if cfg.SLOTarget < 0 || cfg.SLOTarget > 1 {
		return nil, fmt.Errorf("vm %q: slo target %v outside [0,1]", cfg.Name, cfg.SLOTarget)
	}
	if cfg.Shares < 0 {
		return nil, fmt.Errorf("vm %q: negative shares %d", cfg.Name, cfg.Shares)
	}
	if cfg.ReservedCores < 0 || cfg.ReservedCores > cfg.VCPUs {
		return nil, fmt.Errorf("vm %q: reservation %v outside [0, vcpus=%v]", cfg.Name, cfg.ReservedCores, cfg.VCPUs)
	}
	if cfg.LimitCores < 0 || (cfg.LimitCores > 0 && cfg.LimitCores > cfg.VCPUs) {
		return nil, fmt.Errorf("vm %q: limit %v outside [0, vcpus=%v]", cfg.Name, cfg.LimitCores, cfg.VCPUs)
	}
	if cfg.LimitCores > 0 && cfg.ReservedCores > cfg.LimitCores {
		return nil, fmt.Errorf("vm %q: reservation %v above limit %v", cfg.Name, cfg.ReservedCores, cfg.LimitCores)
	}
	slo := cfg.SLOTarget
	if slo == 0 {
		slo = 0.95
	}
	shares := cfg.Shares
	if shares == 0 {
		shares = 1000
	}
	name := cfg.Name
	if name == "" {
		name = fmt.Sprintf("vm-%d", id)
	}
	return &VM{
		id:        id,
		name:      name,
		vcpus:     cfg.VCPUs,
		memoryGB:  cfg.MemoryGB,
		trace:     cfg.Trace,
		sloTarget: slo,
		shares:    shares,
		group:     cfg.Group,
		reserved:  cfg.ReservedCores,
		limit:     cfg.LimitCores,
	}, nil
}

// ID returns the VM's identifier.
func (v *VM) ID() ID { return v.id }

// Name returns the VM's display name.
func (v *VM) Name() string { return v.name }

// VCPUs returns the VM's CPU cap in cores.
func (v *VM) VCPUs() float64 { return v.vcpus }

// MemoryGB returns the VM's memory footprint.
func (v *VM) MemoryGB() float64 { return v.memoryGB }

// SLOTarget returns the delivered/demanded fraction the VM requires.
func (v *VM) SLOTarget() float64 { return v.sloTarget }

// Shares returns the VM's contention weight.
func (v *VM) Shares() int { return v.shares }

// Group returns the VM's anti-affinity group ("" = unconstrained).
func (v *VM) Group() string { return v.group }

// ReservedCores returns the guaranteed CPU minimum.
func (v *VM) ReservedCores() float64 { return v.reserved }

// LimitCores returns the delivery cap (0 = none beyond vCPUs).
func (v *VM) LimitCores() float64 { return v.limit }

// Trace returns the VM's demand trace.
func (v *VM) Trace() *workload.Trace { return v.trace }

// Demand returns the CPU the VM wants at virtual time at, capped at
// its vCPU count and its limit.
func (v *VM) Demand(at time.Duration) float64 {
	return v.CapDemand(v.trace.At(at))
}

// CapDemand caps a raw demand of d cores at the VM's vCPU count and its
// limit, as Demand caps the trace's value.
func (v *VM) CapDemand(d float64) float64 {
	if d > v.vcpus {
		d = v.vcpus
	}
	if v.limit > 0 && d > v.limit {
		d = v.limit
	}
	return d
}

// NextDemandChange returns the next time after at when the VM's demand
// can change.
func (v *VM) NextDemandChange(at time.Duration) time.Duration {
	return v.trace.NextChange(at)
}

// String implements fmt.Stringer.
func (v *VM) String() string {
	return fmt.Sprintf("%s(%gvcpu,%gGB)", v.name, v.vcpus, v.memoryGB)
}
