package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"noisypull"
	"noisypull/internal/buildinfo"
	"noisypull/internal/fleet"
	"noisypull/internal/rng"
	"noisypull/internal/service"
)

// microBudget is the time each layer micro-timing may use.
const microBudget = 100 * time.Millisecond

// maxJointSupport mirrors the support cap the vector engine passes to
// MultinomialDist.PrecomputeJoint each round.
const maxJointSupport = 4096

// maxLeaseResults is the fleet's default largest lease, the result count of
// one delivery in steady state.
const maxLeaseResults = 32

// sink keeps timed calls from being optimised away.
var sink int

// allocsPer returns heap allocations per call of fn over n calls.
func allocsPer(n int, fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// rngLayer times the samplers the engine draws from, at the workload's sample
// size h, its noise level and its alphabet. The observation law is row 0 of
// the noise matrix, what an agent sees when every agent displays symbol 0.
func rngLayer(spec service.JobSpec, m metrics) error {
	cfg, err := spec.Build()
	if err != nil {
		return err
	}
	s := rng.New(1)
	m.set("rng.binomial_ns", perOp(microBudget, func() { sink += s.Binomial(spec.H, spec.Delta) }), "ns")
	var bd rng.BinomialDist
	bd.Init(spec.H, spec.Delta)
	m.set("rng.binomial_dist_ns", perOp(microBudget, func() { sink += bd.Sample(s) }), "ns")

	q := cfg.Noise.Row(0)
	var md rng.MultinomialDist
	build := func() {
		md.Init(spec.H, q)
		if md.PrecomputeJoint(maxJointSupport) {
			sink++
		}
	}
	m.set("rng.multinomial_joint_build_us", perOp(microBudget, build)/1e3, "us")
	m.set("rng.multinomial_joint_build_allocs", allocsPer(100, build), "allocs/call")
	out := make([]int, len(q))
	m.set("rng.multinomial_joint_sample_ns", perOp(microBudget, func() { md.SampleJoint(s, out) }), "ns")
	return nil
}

// simLayer times runner construction, Snapshot and Restore at the workload's
// shape, after a full run of seed.
func simLayer(spec service.JobSpec, seed uint64, m metrics) error {
	cfg, err := spec.Build()
	if err != nil {
		return err
	}
	cfg.Seed = seed
	var builds []float64
	for i := 0; i < 5; i++ {
		start := time.Now()
		r, err := noisypull.NewRunner(cfg)
		if err != nil {
			return err
		}
		builds = append(builds, ms(time.Since(start)))
		r.Close()
	}
	m.set("sim.runner_build_ms", median(builds), "ms")

	r, err := noisypull.NewRunner(cfg)
	if err != nil {
		return err
	}
	defer r.Close()
	if _, err := r.Run(); err != nil {
		return err
	}
	snap, err := r.Snapshot()
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	if err := r.Restore(snap); err != nil {
		return fmt.Errorf("restore: %w", err)
	}
	m.set("sim.snapshot_us", perOp(microBudget, func() { snap, _ = r.Snapshot() })/1e3, "us")
	m.set("sim.snapshot_bytes", float64(len(snap)), "B")
	m.set("sim.restore_us", perOp(microBudget, func() {
		if r.Restore(snap) == nil {
			sink++
		}
	})/1e3, "us")
	return nil
}

// fleetLayer times AttestAll and DecodeResult on one lease's worth of results,
// encoded exactly as a worker delivers them.
func fleetLayer(spec service.JobSpec, results []service.SeedResult, m metrics) error {
	if len(results) > maxLeaseResults {
		results = results[:maxLeaseResults]
	}
	fp, build := spec.Fingerprint(), buildinfo.Version()
	m.set("fleet.attest_us", perOp(microBudget, func() { sink += len(fleet.AttestAll(results, fp, build)) })/1e3, "us")
	req := fleet.ResultRequest{NodeID: "bench-w0", LeaseID: "l-1-000", Results: results, Build: build,
		Atts: fleet.AttestAll(results, fp, build)}
	req.Seal()
	body, err := json.Marshal(&req)
	if err != nil {
		return err
	}
	if _, err := fleet.DecodeResult(body); err != nil {
		return fmt.Errorf("decode result: %w", err)
	}
	m.set("fleet.decode_result_us", perOp(microBudget, func() {
		if r, _ := fleet.DecodeResult(body); r != nil {
			sink++
		}
	})/1e3, "us")
	return nil
}

// calibration is the host's speed beside the run, so a shift between hosts
// can be told apart from a regression of the program.
type calibration struct {
	SFSeedMS float64 `json:"sf_seed_ms"` // direct local-sf seed, fixed seeds
	FsyncUS  float64 `json:"fsync_us"`   // append plus fsync in the journal's directory
}

// calibrate times two fixed seeds of the local-sf shape and 32 appends with
// fsync of a journal-sized line in dir.
func calibrate(dir string) (calibration, error) {
	var c calibration
	w, err := lookupWorkload("local-sf")
	if err != nil {
		return c, err
	}
	cfg, err := w.spec.Build()
	if err != nil {
		return c, err
	}
	cfg.Seed = 1
	r, err := noisypull.NewRunner(cfg)
	if err != nil {
		return c, err
	}
	defer r.Close()
	var seeds []float64
	for seed := uint64(1); seed <= 2; seed++ {
		r.Reset(seed)
		start := time.Now()
		if _, err := r.Run(); err != nil {
			return c, err
		}
		seeds = append(seeds, ms(time.Since(start)))
	}
	c.SFSeedMS = median(seeds)

	f, err := os.Create(filepath.Join(dir, "fsync-probe"))
	if err != nil {
		return c, err
	}
	defer f.Close()
	line := make([]byte, 256)
	line[255] = '\n'
	var syncs []float64
	for i := 0; i < 32; i++ {
		start := time.Now()
		if _, err := f.Write(line); err != nil {
			return c, err
		}
		if err := f.Sync(); err != nil {
			return c, err
		}
		syncs = append(syncs, float64(time.Since(start))/1e3)
	}
	c.FsyncUS = median(syncs)
	return c, nil
}
