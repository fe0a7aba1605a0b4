package power

// State is a server platform power state at management granularity.
// Deep processor C-states are folded into the S0 power curve (their
// transitions are OS-transparent and take microseconds); S3 and S5 are
// explicit because entering and leaving them takes the server off the
// network for seconds to minutes — exactly the latency the paper's
// management layer reasons about.
type State int

const (
	// S0 — the server is on and can run VMs.
	S0 State = iota
	// S3 — suspend-to-RAM: the low-latency sleep state the paper's
	// prototypes demonstrate. Memory stays powered; resume takes
	// seconds.
	S3
	// S5 — soft-off: the traditional "power down" used by prior DPM
	// systems. Resume is a full boot taking minutes.
	S5
	// NumStates is the number of states, so per-state arrays can be
	// indexed by State.
	NumStates = int(S5) + 1
)

// String returns the ACPI-style name of the state.
func (s State) String() string {
	switch s {
	case S0:
		return "S0"
	case S3:
		return "S3"
	case S5:
		return "S5"
	default:
		return "S?"
	}
}

// IsSleep reports whether the state is a sleep (parked) state.
func (s State) IsSleep() bool { return s == S3 || s == S5 }

// Phase describes what the platform is doing right now: parked in a
// state, or in the middle of a transition.
type Phase int

const (
	// Settled — the machine is parked in its current State.
	Settled Phase = iota
	// Entering — the machine is transitioning from S0 into a sleep
	// state and is unavailable.
	Entering
	// Exiting — the machine is transitioning from a sleep state back to
	// S0 and is unavailable.
	Exiting
)

// String returns a short name for the phase.
func (p Phase) String() string {
	switch p {
	case Settled:
		return "settled"
	case Entering:
		return "entering"
	case Exiting:
		return "exiting"
	default:
		return "phase?"
	}
}
