package experiment

import (
	"fmt"
	"math"

	"noisypull/internal/rng"
	"noisypull/internal/sim"
	"noisypull/internal/stats"
)

// trialSeed derives a deterministic seed for trial t of grid point g under
// base seed.
func trialSeed(base uint64, g, t int) uint64 {
	v1, _ := rng.SplitMix64(base ^ (uint64(g) * 0x9e3779b97f4a7c15))
	v2, _ := rng.SplitMix64(uint64(t) ^ 0xda942042e4dd58b5)
	return v1 ^ v2
}

// trialBatch holds the aggregated outcome of repeated simulations at one
// grid point.
type trialBatch struct {
	Trials    int
	Successes int
	// Durations are the executed round counts of all trials.
	Durations []float64
	// Recoveries are FirstAllCorrect rounds of the successful trials.
	Recoveries []float64
}

// SuccessRate returns the fraction of converged trials.
func (b *trialBatch) SuccessRate() float64 {
	if b.Trials == 0 {
		return 0
	}
	return float64(b.Successes) / float64(b.Trials)
}

// MedianDuration returns the median executed rounds.
func (b *trialBatch) MedianDuration() float64 {
	return stats.Summarize(b.Durations).Median
}

// MedianRecovery returns the median FirstAllCorrect round among successful
// trials, or 0 if none succeeded.
func (b *trialBatch) MedianRecovery() float64 {
	if len(b.Recoveries) == 0 {
		return 0
	}
	return stats.Summarize(b.Recoveries).Median
}

// Wilson95 returns the 95% Wilson interval on the success rate.
func (b *trialBatch) Wilson95() stats.Proportion {
	return stats.Wilson(b.Successes, b.Trials, 1.96)
}

// runTrials executes trials of the configuration produced by makeCfg (which
// receives the trial seed) and aggregates the outcomes. Trials execute
// concurrently on opts.Parallel goroutines with single-worker simulations,
// keeping total CPU use at the configured level while staying fully
// deterministic (each trial's behaviour depends only on its seed).
//
// Each goroutine keeps one runner and rewinds it with Reset between trials
// whenever consecutive configurations are identical up to the seed (the
// common case: grid-point closures reuse their noise matrix, protocol, and
// topology), so the experiment grids do not pay population construction and
// channel building per trial. Configurations that genuinely differ (for
// example per-trial random graphs) fall back to a fresh runner.
func runTrials(opts Options, gridPoint, trials int, makeCfg func(seed uint64) sim.Config) (*trialBatch, error) {
	return runTrialsOn(opts, gridPoint, trials, makeCfg, sim.New, "trial")
}

// runAsyncTrials is runTrials for the asynchronous schedule (sim.NewAsync).
func runAsyncTrials(opts Options, gridPoint, trials int, makeCfg func(seed uint64) sim.Config) (*trialBatch, error) {
	return runTrialsOn(opts, gridPoint, trials, makeCfg, sim.NewAsync, "async trial")
}

// runTrialsOn is the trial loop behind runTrials and runAsyncTrials: build
// constructs a goroutine's runner (sim.New or sim.NewAsync), and what names
// a trial in errors.
func runTrialsOn(opts Options, gridPoint, trials int, makeCfg func(seed uint64) sim.Config,
	build func(sim.Config) (*sim.Runner, error), what string) (*trialBatch, error) {
	if trials <= 0 {
		return nil, fmt.Errorf("experiment: trials = %d", trials)
	}
	ctx := opts.ctx()
	results := make([]*sim.Result, trials)
	errs := make([]error, trials)
	sim.ForEachTrial(ctx, opts.Parallel, trials, func() func(int) {
		var runner *sim.Runner
		var runnerCfg sim.Config
		return func(t int) {
			cfg := makeCfg(trialSeed(opts.Seed, gridPoint, t))
			cfg.Workers = 1
			if runner != nil && runnerCfg.ResetCompatible(&cfg) {
				runner.Reset(cfg.Seed)
			} else {
				var err error
				if runner, err = build(cfg); err != nil {
					errs[t] = err
					return
				}
				runnerCfg = cfg
			}
			results[t], errs[t] = runner.RunContext(ctx)
		}
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	batch := &trialBatch{Trials: trials}
	for t := 0; t < trials; t++ {
		if errs[t] != nil {
			return nil, fmt.Errorf("experiment: %s %d: %w", what, t, errs[t])
		}
		res := results[t]
		batch.Durations = append(batch.Durations, float64(res.Rounds))
		if res.Converged {
			batch.Successes++
			batch.Recoveries = append(batch.Recoveries, float64(res.FirstAllCorrect))
		}
	}
	return batch, nil
}

// runTrialsRaw executes trials of one fixed configuration (seeds derived
// from opts as in runTrials) and returns the per-trial Results unaggregated.
// Experiments that need fields trialBatch drops — fault telemetry, opinion
// histories — use this instead of runTrials.
func runTrialsRaw(opts Options, gridPoint, trials int, cfg sim.Config) ([]*sim.Result, error) {
	if trials <= 0 {
		return nil, fmt.Errorf("experiment: trials = %d", trials)
	}
	seeds := make([]uint64, trials)
	for t := range seeds {
		seeds[t] = trialSeed(opts.Seed, gridPoint, t)
	}
	results, err := sim.RunBatchContext(opts.ctx(), cfg, seeds, opts.Parallel)
	if err != nil {
		return nil, fmt.Errorf("experiment: grid point %d: %w", gridPoint, err)
	}
	return results, nil
}

// lnF returns the natural log of n as a float64.
func lnF(n int) float64 {
	return math.Log(float64(n))
}
