package main

import (
	"fmt"

	"noisypull/internal/rng"
	"noisypull/internal/service"
)

// workload is one job shape plus the closed-loop client setup that drives it.
// Every client submits a job, streams it to its terminal line, then submits
// the next one.
type workload struct {
	name        string
	spec        service.JobSpec // Seeds are filled per job
	seedsPerJob int
	clients     int
	// fleet runs the daemon as a coordinator with two one-slot workers,
	// a shared secret and 2-way quorum verification of every range.
	fleet bool
}

var workloads = []workload{
	{
		name:        "local-sf",
		spec:        service.JobSpec{Protocol: "sf", N: 2000, H: 16, Sources1: 1, Delta: 0.1},
		seedsPerJob: 8,
		clients:     1,
	},
	{
		name:        "fleet-verify",
		spec:        service.JobSpec{Protocol: "sf", N: 256, H: 64, Sources1: 1, Delta: 0.2},
		seedsPerJob: 256,
		clients:     1,
		fleet:       true,
	},
	{
		name:        "ssf-journal",
		spec:        service.JobSpec{Protocol: "ssf", N: 500, H: 16, Sources1: 1, Delta: 0.05, CheckpointRounds: 100},
		seedsPerJob: 4,
		clients:     2,
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// Seed streams: timed jobs and warm-up jobs draw from disjoint derivations of
// the workload seed, so a run's inputs depend on --seed alone.
const (
	streamJobs   = 1
	streamWarmup = 2
)

// jobSeeds returns the trial seeds of job i (distinct within the job): the
// i-th block of count seeds derived from the workload seed. Seeds stay below
// 2^53 so every JSON reader keeps them exact.
func jobSeeds(workloadSeed, stream uint64, i, count int) []uint64 {
	base := rng.DeriveSeed(workloadSeed, stream)
	seen := make(map[uint64]bool, count)
	seeds := make([]uint64, 0, count)
	for k := uint64(i) * uint64(count); len(seeds) < count; k++ {
		s := rng.DeriveSeed(base, k)>>11 + 1
		if !seen[s] {
			seen[s] = true
			seeds = append(seeds, s)
		}
	}
	return seeds
}

// jobSpec is the workload's spec carrying the given seeds.
func (w workload) jobSpec(seeds []uint64) service.JobSpec {
	spec := w.spec
	spec.Seeds = seeds
	return spec
}
