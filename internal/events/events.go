// Package events records the structured audit trail of a simulation:
// every placement, migration, power transition and provisioning action,
// timestamped in virtual time. Operators read it as a timeline; tests
// read it as ground truth about what the manager actually did.
package events

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// Kind classifies an event.
type Kind int

const (
	// VMPlaced — a VM landed on a host (initial placement or
	// provisioning).
	VMPlaced Kind = iota
	// VMRemoved — a VM departed the cluster.
	VMRemoved
	// VMArrived — a VM arrived and awaits placement.
	VMArrived
	// MigrationStarted — pre-copy began.
	MigrationStarted
	// MigrationCompleted — the VM switched hosts.
	MigrationCompleted
	// HostSleeping — a host began entering a sleep state.
	HostSleeping
	// HostWaking — a host began exiting a sleep state.
	HostWaking
	// HostSettled — a host completed a transition.
	HostSettled
	// MigrationFailed — an in-flight migration aborted; the VM stays on
	// its source host.
	MigrationFailed
	// HostCrashed — a host crashed and is down for repair.
	HostCrashed
	// DemandScaled — a scenario event rescaled a fleet's demand
	// (demand-surge); Detail carries the fleet selector and factor.
	DemandScaled
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case VMPlaced:
		return "vm-placed"
	case VMRemoved:
		return "vm-removed"
	case VMArrived:
		return "vm-arrived"
	case MigrationStarted:
		return "migration-started"
	case MigrationCompleted:
		return "migration-completed"
	case HostSleeping:
		return "host-sleeping"
	case HostWaking:
		return "host-waking"
	case HostSettled:
		return "host-settled"
	case MigrationFailed:
		return "migration-failed"
	case HostCrashed:
		return "host-crashed"
	case DemandScaled:
		return "demand-scaled"
	default:
		return "event?"
	}
}

// Event is one audit record. VM and Host are the subjects (zero when
// not applicable); Detail carries kind-specific context ("S3", "host
// 3→7").
type Event struct {
	At     time.Duration
	Kind   Kind
	VM     int
	Host   int
	Detail string
}

// String renders one line of the timeline.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-20s", fmtAt(e.At), e.Kind)
	if e.VM != 0 {
		fmt.Fprintf(&b, " vm=%d", e.VM)
	}
	if e.Host != 0 {
		fmt.Fprintf(&b, " host=%d", e.Host)
	}
	if e.Detail != "" {
		fmt.Fprintf(&b, " %s", e.Detail)
	}
	return b.String()
}

func fmtAt(d time.Duration) string {
	h := int(d.Hours())
	m := int(d.Minutes()) % 60
	sec := int(d.Seconds()) % 60
	return fmt.Sprintf("%02d:%02d:%02d", h, m, sec)
}

// Log is an append-only bounded event recorder. When the cap is
// reached, the oldest half is dropped (keeping a simulation from
// accumulating unbounded history); Dropped reports how many were lost.
type Log struct {
	cap     int
	events  []Event
	dropped int
	// shared marks a copy-on-write clone: events aliases another log's
	// backing array and must be detached (copied) before the first
	// append. Cloning a pristine world's construction log is pure
	// bookkeeping this way — forks that never record an event (or are
	// thrown away) never pay for the copy.
	shared bool
}

// NewLog returns a log bounded at capacity (≤0 selects 100,000).
func NewLog(capacity int) *Log {
	if capacity <= 0 {
		capacity = 100_000
	}
	return &Log{cap: capacity}
}

// Append records an event.
func (l *Log) Append(e Event) {
	if l.shared {
		l.detach()
	}
	if len(l.events) >= l.cap {
		drop := l.cap / 2
		l.dropped += drop
		l.events = append(l.events[:0], l.events[drop:]...)
	}
	l.events = append(l.events, e)
}

// Share marks the log copy-on-write up front: its next append
// detaches onto a private backing array. Clone marks its source the
// same way, but writes the flag only when it is not set yet, so a
// Shared log may be cloned from many goroutines at once.
func (l *Log) Share() { l.shared = true }

// Clone returns an independent copy of the log: same cap, same
// retained events, same drop count. Appends to either side never
// affect the other — the snapshot/fork layer uses this to give each
// forked run its own audit trail seeded with the prototype's
// construction events. The copy is lazy: clone and source share the
// backing array until one of them appends (both sides detach before
// their first write, so the shared prefix is never mutated).
func (l *Log) Clone() *Log {
	out := &Log{cap: l.cap, dropped: l.dropped}
	if len(l.events) > 0 {
		out.events = l.events[:len(l.events):len(l.events)]
		out.shared = true
		if !l.shared {
			l.shared = true
		}
	}
	return out
}

// detach gives a copy-on-write log its own backing array.
func (l *Log) detach() {
	owned := make([]Event, len(l.events))
	copy(owned, l.events)
	l.events = owned
	l.shared = false
}

// Len returns the number of retained events.
func (l *Log) Len() int { return len(l.events) }

// Dropped returns how many events were discarded to stay within the
// cap.
func (l *Log) Dropped() int { return l.dropped }

// All returns the retained events in order (callers must not mutate).
func (l *Log) All() []Event { return l.events }

// Filter returns the retained events matching every provided
// predicate.
func (l *Log) Filter(preds ...func(Event) bool) []Event {
	var out []Event
outer:
	for _, e := range l.events {
		for _, p := range preds {
			if !p(e) {
				continue outer
			}
		}
		out = append(out, e)
	}
	return out
}

// OfKind selects events by kind.
func OfKind(kinds ...Kind) func(Event) bool {
	return func(e Event) bool {
		for _, k := range kinds {
			if e.Kind == k {
				return true
			}
		}
		return false
	}
}

// ForVM selects events about one VM.
func ForVM(id int) func(Event) bool {
	return func(e Event) bool { return e.VM == id }
}

// ForHost selects events about one host.
func ForHost(id int) func(Event) bool {
	return func(e Event) bool { return e.Host == id }
}

// Between selects events in [from, to).
func Between(from, to time.Duration) func(Event) bool {
	return func(e Event) bool { return e.At >= from && e.At < to }
}

// Write renders the retained events one per line.
func (l *Log) Write(w io.Writer) error {
	if l.dropped > 0 {
		if _, err := fmt.Fprintf(w, "(%d earlier events dropped)\n", l.dropped); err != nil {
			return err
		}
	}
	for _, e := range l.events {
		if _, err := fmt.Fprintln(w, e.String()); err != nil {
			return err
		}
	}
	return nil
}

// Counts returns how many retained events there are per kind.
func (l *Log) Counts() map[Kind]int {
	out := make(map[Kind]int)
	for _, e := range l.events {
		out[e.Kind]++
	}
	return out
}
