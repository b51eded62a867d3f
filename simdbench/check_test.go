package main

import (
	"errors"
	"testing"

	"noisypull/internal/service"
)

func TestCheckCountsDoctoredAndFailedJobs(t *testing.T) {
	want := map[uint64]service.SeedResult{
		1: {Seed: 1, Rounds: 10, Converged: true, FinalCorrect: 5},
		2: {Seed: 2, Rounds: 12, Converged: true, FinalCorrect: 5},
	}
	good := &jobRecord{seeds: []uint64{1, 2}, status: &service.JobStatus{
		ID: "1", State: service.StateDone, Results: []service.SeedResult{want[1], want[2]}}}
	if got := check([]*jobRecord{good}, want); got.failed() != 0 || got.attempted != 2 {
		t.Fatalf("clean job: %+v", got)
	}
	if err := selfTest([]*jobRecord{good}, want); err != nil {
		t.Fatal(err)
	}

	doctored := *good.status
	doctored.Results = []service.SeedResult{want[1], want[2]}
	doctored.Results[1].Rounds++
	short := &jobRecord{seeds: []uint64{1, 2}, status: &service.JobStatus{
		ID: "2", State: service.StateDone, Results: []service.SeedResult{want[1]}}}
	failed := &jobRecord{seeds: []uint64{1}, status: &service.JobStatus{ID: "3", State: service.StateFailed}}
	refused := &jobRecord{seeds: []uint64{2}, submitErr: errors.New("429")}
	got := check([]*jobRecord{{seeds: good.seeds, status: &doctored}, short, failed, refused}, want)
	if got.mismatches != 2 || got.jobErrors != 2 || got.attempted != 6 {
		t.Fatalf("got %+v, want 2 mismatches, 2 job errors, 6 attempted", got)
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, p, n := tail(xs); v != 90 || p != 90 || n != 100 {
		t.Fatalf("tail of 1..100 = %v at p%v of %d, want 90 at p90", v, p, n)
	}
	if v, p, _ := tail(xs[:5]); v != 5 || p != 100 {
		t.Fatalf("tail of 1..5 = %v at p%v, want the maximum", v, p)
	}
}
