package sim

import (
	"errors"
	"fmt"
)

// NewAsync validates cfg and returns a Runner on the asynchronous
// activation schedule instead of synchronous rounds: at every step one
// uniformly random agent activates, observes h noisy samples of the
// population's *current* displays, and updates. Time is reported in
// parallel rounds (n activations = 1 round), making results comparable
// with New's.
//
// This schedule removes the simultaneous wake-up assumption entirely —
// agents' internal schedules advance at independent random rates. SSF
// (whose guarantees never reference a global clock) is expected to keep
// working; SF's phase structure relies on synchronized rounds, so it is
// expected to break. Experiment E17 measures exactly this contrast.
//
// The runner is built by New's constructor and shares its channel,
// population construction, Reset, and round loop, with three differences:
// Finite protocols run for MaxRounds with the usual stability-window
// semantics (a global schedule has no meaning here); activation is
// sequential, so Workers is ignored and the runner runs the protocol's
// per-agent definition (agentPop.stepAsync); and there is no fault
// injection or checkpointing —
// Faults, OnFault, and CheckpointEvery/OnCheckpoint are rejected, and
// Snapshot and Restore return an error. The counts backend has no
// individual agents to activate and is rejected too.
func NewAsync(cfg Config) (*Runner, error) { return newRunner(cfg, true) }

// errAsyncSnapshot is returned by Snapshot and Restore on an asynchronous
// runner.
var errAsyncSnapshot = errors.New("sim: an asynchronous runner has no snapshots; its scheduler stream and incremental tallies are not encoded")

// checkAsync rejects the configuration inputs the asynchronous schedule
// cannot honour, instead of silently running without them.
func checkAsync(cfg *Config) error {
	if cfg.Backend == BackendCounts {
		return fmt.Errorf("sim: backend %v tracks class counts, not individual agents, and has no asynchronous schedule; use exact or aggregate", cfg.Backend)
	}
	var field string
	switch {
	case cfg.Faults != nil:
		field = "Faults"
	case cfg.OnFault != nil:
		field = "OnFault"
	case cfg.CheckpointEvery > 0:
		field = "CheckpointEvery"
	case cfg.OnCheckpoint != nil:
		field = "OnCheckpoint"
	default:
		return nil
	}
	return fmt.Errorf("sim: the asynchronous schedule has no fault injection or checkpointing; Config.%s must be unset", field)
}
