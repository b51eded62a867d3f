package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"noisypull/internal/service"
)

// serialSeeds is how many seeds the serial direct pass times for the sim
// layer metrics.
const serialSeeds = 16

// tracedWindow is the traced run: a fresh rig with every layer boundary
// wrapped, one warm-up job, then a timed window like the untraced one.
type tracedWindow struct {
	w      workload
	t      *tracer
	warmup *jobRecord
	win    *window

	before, after   map[string]float64 // /metrics around the window
	rpcs, wireBytes int64              // fleet worker transport totals in the window
	mallocs         uint64             // heap allocations of the process in the window
	journalBytes    int64              // journal growth in the window
}

func runTraced(ctx context.Context, w workload, seed uint64, root string, firstJob int, d time.Duration) (*tracedWindow, error) {
	tw := &tracedWindow{w: w, t: newTracer()}
	r, err := startRig(ctx, w, filepath.Join(root, "journal-traced"), tw.t)
	if err != nil {
		return nil, err
	}
	defer r.close()
	tw.warmup = runJob(ctx, r.client, tw.t, w.jobSpec(jobSeeds(seed, streamWarmup, setups, 1)))
	if tw.before, err = r.scrape(ctx); err != nil {
		return nil, err
	}
	rpcs0, bytes0 := r.wireTotals()
	journal0 := r.journalBytes()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	tw.win = closedLoop(ctx, r, seed, firstJob, d)
	runtime.ReadMemStats(&m1)
	if tw.after, err = r.scrape(ctx); err != nil {
		return nil, err
	}
	rpcs1, bytes1 := r.wireTotals()
	tw.rpcs, tw.wireBytes = rpcs1-rpcs0, bytes1-bytes0
	tw.mallocs = m1.Mallocs - m0.Mallocs
	tw.journalBytes = r.journalBytes() - journal0
	return tw, nil
}

// wireTotals sums the fleet workers' RPC and byte counts.
func (r *rig) wireTotals() (rpcs, bytes int64) {
	for _, wt := range r.wire {
		rpcs += wt.rpcs.Load()
		bytes += wt.bytes.Load()
	}
	return rpcs, bytes
}

// delta is the growth of a /metrics series over the window.
func (tw *tracedWindow) delta(series string) float64 { return tw.after[series] - tw.before[series] }

// done lists the window's jobs that reached done.
func (tw *tracedWindow) done() []*jobRecord {
	var out []*jobRecord
	for _, j := range tw.win.jobs {
		if j.failed() == "" {
			out = append(out, j)
		}
	}
	return out
}

// spansIn returns the spans called name that ended inside the window.
func (tw *tracedWindow) spansIn(name string, lo, hi int64) []span {
	var out []span
	for _, s := range tw.t.named(name) {
		if s.End >= lo && s.End <= hi {
			out = append(out, s)
		}
	}
	return out
}

func durationsMS(spans []span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = ms(s.dur())
	}
	return out
}

// layerMetrics computes the per-layer metrics of the traced window. dr holds
// the direct engine's results and times for every admitted seed.
func (tw *tracedWindow) layerMetrics(ctx context.Context, dr *directRun, cal calibration, m metrics) error {
	spec := tw.w.spec
	jobs := tw.done()
	if len(jobs) == 0 {
		return fmt.Errorf("%s: no job completed in the traced window", tw.w.name)
	}
	admitted := 0
	end := tw.win.start
	for _, j := range jobs {
		admitted += len(j.seeds)
		if j.end.After(end) {
			end = j.end
		}
	}
	wall := end.Sub(tw.win.start).Seconds()
	lo, hi := tw.t.ns(tw.win.start), tw.t.ns(end)
	perSeed := func(v float64) float64 { return v / float64(admitted) }

	// sim: a serial direct pass over the first job's seeds.
	seeds := jobs[0].seeds[:min(serialSeeds, len(jobs[0].seeds))]
	serial, err := runDirect(ctx, spec, seeds, 1, tw.t)
	if err != nil {
		return err
	}
	var seedMS []float64
	for _, v := range serial.runMS {
		seedMS = append(seedMS, v)
	}
	simSeedMS := median(seedMS)
	m.set("sim.seed_ms", simSeedMS, "ms")
	m.set("sim.ns_per_agent_round", serial.nsPerAgentRound, "ns")
	m.set("sim.allocs_per_round", serial.allocsPerRound, "allocs/round")
	if err := simLayer(spec, seeds[0], m); err != nil {
		return err
	}
	computedPerAdmitted := 1.0
	if tw.w.fleet {
		computedPerAdmitted = perSeed(tw.delta("simd_fleet_worker_seeds_total"))
	}
	m.set("sim.busy_cores", float64(admitted)*computedPerAdmitted*simSeedMS/1e3/wall, "cores")

	if err := rngLayer(spec, m); err != nil {
		return err
	}

	// service: client-side job timings, JobStatus times, stream and journal.
	var submitMS, queueMS, runMS, overDirect []float64
	events, dropped := 0, int64(0)
	for _, j := range jobs {
		submitMS = append(submitMS, ms(j.submitted.Sub(j.submit)))
		st := j.status
		if st.Started != nil && st.Finished != nil {
			queueMS = append(queueMS, ms(st.Started.Sub(st.Created)))
			run := ms(st.Finished.Sub(*st.Started))
			runMS = append(runMS, run)
			direct := 0.0
			for _, s := range j.seeds {
				direct += dr.runMS[s]
			}
			overDirect = append(overDirect, run/direct)
		}
		events += j.events
		dropped += j.dropped
	}
	m.set("service.submit_ms", median(submitMS), "ms")
	m.set("service.queue_wait_ms_p50", median(queueMS), "ms")
	m.set("service.queue_wait_ms_max", maxOf(queueMS), "ms")
	m.set("service.run_ms", median(runMS), "ms")
	m.set("service.e2e_over_direct", median(overDirect), "ratio")
	m.set("service.stream_events_per_s", float64(events)/wall, "1/s")
	m.set("service.stream_dropped", float64(dropped), "count")
	m.set("service.allocs_per_seed", perSeed(float64(tw.mallocs)), "allocs/seed")
	m.set("service.checkpoints", tw.delta("simd_checkpoints_total"), "count")
	m.set("service.journal_bytes_per_seed", perSeed(float64(tw.journalBytes)), "B/seed")
	m.set("service.journal_fsync_us", cal.FsyncUS, "us")

	// fleet: wire spans and counters; zero where the workload has no fleet.
	var first []service.SeedResult
	for _, s := range jobs[0].seeds[:min(maxLeaseResults, len(jobs[0].seeds))] {
		first = append(first, dr.results[s])
	}
	if err := fleetLayer(spec, first, m); err != nil {
		return err
	}
	pickup, idle, lag := tw.fleetSpans(jobs, lo, hi)
	polls := append(tw.spansIn("fleet.rpc.poll", lo, hi), tw.spansIn("fleet.rpc.poll_lease", lo, hi)...)
	m.set("fleet.pickup_ms", pickup, "ms")
	m.set("fleet.worker_idle_share", idle, "ratio")
	m.set("fleet.poll_rtt_ms", median(durationsMS(polls)), "ms")
	m.set("fleet.result_rtt_ms", median(durationsMS(tw.spansIn("fleet.rpc.result", lo, hi))), "ms")
	m.set("fleet.handle_result_ms", median(durationsMS(tw.spansIn("fleet.handle.result", lo, hi))), "ms")
	m.set("fleet.release_lag_ms", lag, "ms")
	if !tw.w.fleet {
		computedPerAdmitted = 0
	}
	m.set("fleet.computed_per_admitted", computedPerAdmitted, "ratio")
	m.set("fleet.bytes_per_seed", perSeed(float64(tw.wireBytes)), "B/seed")
	m.set("fleet.rpcs_per_seed", perSeed(float64(tw.rpcs)), "rpcs/seed")
	m.set("fleet.redispatched", tw.delta("simd_fleet_seeds_redispatched_total"), "count")
	m.set("fleet.duplicates", tw.delta("simd_fleet_results_duplicate_total"), "count")
	m.set("fleet.quorum_votes", tw.delta(`simd_fleet_quorum_votes_total{verdict="agree"}`)+
		tw.delta(`simd_fleet_quorum_votes_total{verdict="disagree"}`), "count")
	return nil
}

// fleetSpans derives, from the worker transport spans, the median time from
// submission until a worker first holds one of the job's leases, the share
// of the window the workers held no lease, and the median lag from the end
// of the result RPC that carried a seed to the seed's arrival on the job's
// stream. All are 0 without fleet spans.
func (tw *tracedWindow) fleetSpans(jobs []*jobRecord, lo, hi int64) (pickupMS, idleShare, lagMS float64) {
	leases := tw.spansIn("fleet.rpc.poll_lease", lo, hi)
	results := tw.spansIn("fleet.rpc.result", lo, hi)
	if len(leases) == 0 {
		return 0, 0, 0
	}
	firstLease := map[string]int64{}
	for _, s := range leases {
		if t, ok := firstLease[s.Job]; !ok || s.End < t {
			firstLease[s.Job] = s.End
		}
	}
	delivered := map[string]map[uint64]int64{} // job → seed → last result RPC end
	for _, s := range results {
		bySeed := delivered[s.Job]
		if bySeed == nil {
			bySeed = map[uint64]int64{}
			delivered[s.Job] = bySeed
		}
		for _, seed := range s.Seeds {
			bySeed[seed] = max(bySeed[seed], s.End)
		}
	}
	var pickup, lag []float64
	for _, j := range jobs {
		id := j.status.ID
		if t, ok := firstLease[id]; ok {
			pickup = append(pickup, float64(t-tw.t.ns(j.submit))/1e6)
		}
		for _, ev := range j.seedEvs {
			if t, ok := delivered[id][ev.seed]; ok {
				lag = append(lag, float64(tw.t.ns(ev.at)-t)/1e6)
			}
		}
	}

	// A one-slot worker alternates: a poll hands it a lease, the result
	// RPC of that lease frees the slot.
	busy := map[string]int64{}
	nodes := map[string]bool{}
	for _, s := range leases {
		nodes[s.Node] = true
	}
	for node := range nodes {
		var held []span
		for _, s := range leases {
			if s.Node == node {
				held = append(held, s)
			}
		}
		var done []span
		for _, s := range results {
			if s.Node == node {
				done = append(done, s)
			}
		}
		byEnd := func(a, b span) int { return int(a.End - b.End) }
		slices.SortFunc(held, byEnd)
		slices.SortFunc(done, byEnd)
		for i := 0; i < len(held) && i < len(done); i++ {
			busy[node] += done[i].End - held[i].End
		}
	}
	share := 0.0
	for _, b := range busy {
		share += float64(b) / float64(hi-lo)
	}
	idleShare = 1 - share/float64(fleetWorkers)
	return median(pickup), idleShare, median(lag)
}
