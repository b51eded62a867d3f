package main

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"time"

	"noisypull"
	"noisypull/internal/service"
)

// directRun holds the direct engine's result for each seed of a spec, with
// the timings of the noisypull calls that produced them.
type directRun struct {
	results map[uint64]service.SeedResult
	runMS   map[uint64]float64
	// nsPerAgentRound is the median over seeds of Run time ÷ (n × rounds).
	nsPerAgentRound float64
	// allocsPerRound is heap allocations per simulated round across all
	// Runs; measured only when the seeds run on one goroutine.
	allocsPerRound float64
}

// runDirect runs every seed through noisypull.NewRunner/Reset/Run on par
// goroutines, each owning one runner, and records a span per call. With
// par == 1 it also counts the allocations of each Run.
func runDirect(ctx context.Context, spec service.JobSpec, seeds []uint64, par int, t *tracer) (*directRun, error) {
	cfg, err := spec.Build()
	if err != nil {
		return nil, fmt.Errorf("build spec: %w", err)
	}
	out := &directRun{results: make(map[uint64]service.SeedResult, len(seeds)), runMS: make(map[uint64]float64, len(seeds))}
	var (
		mu      sync.Mutex
		perNS   []float64
		rounds  int64
		allocs  uint64
		errs    = make([]error, par)
		wg      sync.WaitGroup
		nAgents = float64(spec.N)
	)
	for g := 0; g < par; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var runner *noisypull.Runner
			defer func() {
				if runner != nil {
					runner.Close()
				}
			}()
			var ms0, ms1 runtime.MemStats
			for i := g; i < len(seeds); i += par {
				if ctx.Err() != nil {
					errs[g] = ctx.Err()
					return
				}
				seed := seeds[i]
				start := time.Now()
				if runner == nil {
					c := cfg
					c.Seed = seed
					if runner, errs[g] = noisypull.NewRunner(c); errs[g] != nil {
						return
					}
					t.add("sim.build", "", 0, start, time.Now())
				} else {
					runner.Reset(seed)
					t.add("sim.reset", "", 0, start, time.Now())
				}
				if par == 1 {
					runtime.ReadMemStats(&ms0)
				}
				start = time.Now()
				res, err := runner.RunContext(ctx)
				end := time.Now()
				if par == 1 {
					runtime.ReadMemStats(&ms1)
				}
				if err != nil {
					errs[g] = fmt.Errorf("direct seed %d: %w", seed, err)
					return
				}
				t.add("sim.run", "", 0, start, end)
				mu.Lock()
				out.results[seed] = service.MakeSeedResult(seed, res)
				out.runMS[seed] = ms(end.Sub(start))
				perNS = append(perNS, float64(end.Sub(start))/(nAgents*float64(res.Rounds)))
				rounds += int64(res.Rounds)
				allocs += ms1.Mallocs - ms0.Mallocs
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	out.nsPerAgentRound = median(perNS)
	if par == 1 && rounds > 0 {
		out.allocsPerRound = float64(allocs) / float64(rounds)
	}
	return out, nil
}

// admittedSeeds lists the distinct seeds of the jobs that reached done.
func admittedSeeds(jobs []*jobRecord) []uint64 {
	seen := map[uint64]bool{}
	var out []uint64
	for _, j := range jobs {
		if j.failed() != "" {
			continue
		}
		for _, s := range j.seeds {
			if !seen[s] {
				seen[s] = true
				out = append(out, s)
			}
		}
	}
	return out
}

// tally is the output check of a set of jobs.
type tally struct {
	attempted  int // seeds submitted
	jobErrors  int // refused submissions, broken streams, failed or cancelled jobs
	mismatches int // admitted seed results missing or differing from the direct engine's
	first      string
}

func (t tally) failed() int { return t.jobErrors + t.mismatches }

func (t *tally) note(format string, args ...any) {
	if t.first == "" {
		t.first = fmt.Sprintf(format, args...)
	}
}

// check compares every admitted SeedResult with the direct engine's result
// for the same seed.
func check(jobs []*jobRecord, want map[uint64]service.SeedResult) tally {
	var t tally
	for _, j := range jobs {
		t.attempted += len(j.seeds)
		if why := j.failed(); why != "" {
			t.jobErrors++
			t.note("%s", why)
			continue
		}
		got := j.status.Results
		for i, seed := range j.seeds {
			switch {
			case i >= len(got):
				t.mismatches++
				t.note("job %s: no result for seed %d", j.status.ID, seed)
			case got[i].Seed != seed || !reflect.DeepEqual(got[i], want[seed]):
				t.mismatches++
				t.note("job %s: seed %d result %+v, direct engine %+v", j.status.ID, seed, got[i], want[seed])
			}
		}
	}
	return t
}

// selfTest shows that check counts a doctored result: it copies the first
// completed job, changes one field of one admitted SeedResult and expects
// exactly one mismatch.
func selfTest(jobs []*jobRecord, want map[uint64]service.SeedResult) error {
	for _, j := range jobs {
		if j.failed() != "" || len(j.status.Results) == 0 {
			continue
		}
		st := *j.status
		st.Results = append([]service.SeedResult(nil), st.Results...)
		st.Results[0].FinalCorrect++
		doctored := *j
		doctored.status = &st
		if got := check([]*jobRecord{&doctored}, want); got.mismatches != 1 {
			return fmt.Errorf("output check counted %d mismatches for one doctored result, want 1", got.mismatches)
		}
		return nil
	}
	return errors.New("output check self-test: no completed job to doctor")
}
