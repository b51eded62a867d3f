package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"noisypull/internal/service"
)

// jobTimeout bounds one job from submission to its terminal line.
const jobTimeout = 120 * time.Second

// seedEvent is a seed result's arrival on the job's stream.
type seedEvent struct {
	seed uint64
	at   time.Time
}

// jobRecord is what the client saw of one job.
type jobRecord struct {
	seeds     []uint64
	submit    time.Time // Submit called
	submitted time.Time // Submit returned
	end       time.Time // terminal line received
	seedEvs   []seedEvent
	events    int   // stream events received, terminal line excluded
	dropped   int64 // events missing between received sequence numbers
	status    *service.JobStatus
	submitErr error
	streamErr error
}

func (j *jobRecord) latency() time.Duration { return j.end.Sub(j.submit) }

// runJob submits one job, streams it to its terminal status line and returns
// what the client saw.
func runJob(ctx context.Context, c *service.Client, t *tracer, spec service.JobSpec) *jobRecord {
	ctx, cancel := context.WithTimeout(ctx, jobTimeout)
	defer cancel()
	rec := &jobRecord{seeds: spec.Seeds, submit: time.Now()}
	jobSpan, id := t.newID(), ""
	defer func() {
		if t != nil {
			t.record(span{ID: jobSpan, Name: "client.job", Job: id, Start: t.ns(rec.submit), End: t.ns(rec.end)})
		}
	}()
	st, err := c.Submit(ctx, spec)
	rec.submitted = time.Now()
	if err != nil {
		rec.submitErr = err
		rec.end = rec.submitted
		t.add("client.submit", "", jobSpan, rec.submit, rec.submitted)
		return rec
	}
	id = st.ID
	t.add("client.submit", id, jobSpan, rec.submit, rec.submitted)
	var last uint64
	rec.status, rec.streamErr = c.Stream(ctx, id, func(ev service.Event) error {
		now := time.Now()
		rec.events++
		if ev.Seq != 0 {
			if last != 0 && ev.Seq > last+1 {
				rec.dropped += int64(ev.Seq - last - 1)
			}
			last = ev.Seq
		}
		if ev.Type == "seed" {
			rec.seedEvs = append(rec.seedEvs, seedEvent{seed: ev.Seed, at: now})
		}
		return nil
	})
	rec.end = time.Now()
	t.add("client.stream", id, jobSpan, rec.submitted, rec.end)
	return rec
}

// failed reports why a job counts as an error, or "" when it reached done.
func (j *jobRecord) failed() string {
	switch {
	case j.submitErr != nil:
		return fmt.Sprintf("submit: %v", j.submitErr)
	case j.streamErr != nil:
		return fmt.Sprintf("stream: %v", j.streamErr)
	case j.status == nil:
		return "no terminal status"
	case j.status.State != service.StateDone:
		return fmt.Sprintf("job %s ended %s: %s", j.status.ID, j.status.State, j.status.Error)
	}
	return ""
}

// window is one timed closed-loop run.
type window struct {
	start, deadline time.Time
	jobs            []*jobRecord
}

// closedLoop runs the workload's clients against the rig for the given time.
// Each client submits a job, streams it to its terminal line and submits the
// next, until the deadline; jobs still running then are waited for. Job i of
// the run carries the i-th seed block after firstJob, whichever client runs
// it.
func closedLoop(ctx context.Context, r *rig, workloadSeed uint64, firstJob int, d time.Duration) *window {
	win := &window{start: time.Now()}
	win.deadline = win.start.Add(d)
	var next atomic.Int64
	next.Store(int64(firstJob))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < r.w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(win.deadline) {
				i := int(next.Add(1) - 1)
				rec := runJob(ctx, r.client, r.t, r.w.jobSpec(jobSeeds(workloadSeed, streamJobs, i, r.w.seedsPerJob)))
				mu.Lock()
				win.jobs = append(win.jobs, rec)
				mu.Unlock()
				if rec.failed() != "" {
					return // a broken daemon would otherwise spin; the error is counted
				}
			}
		}()
	}
	wg.Wait()
	return win
}

// seedsPerSec is the admitted seeds per wall second: the results of the
// window's completed jobs over the time from the window's start to the last
// terminal line. Jobs submitted before the deadline run to completion, so
// the clock stops on a result, not on the deadline.
func (win *window) seedsPerSec() float64 {
	n, last := 0, win.start
	for _, j := range win.jobs {
		if j.status != nil {
			n += len(j.status.Results)
		}
		if j.end.After(last) {
			last = j.end
		}
	}
	if n == 0 {
		return 0
	}
	return float64(n) / last.Sub(win.start).Seconds()
}

// latencies returns the submit-to-terminal and submit-to-first-seed times of
// the jobs that completed, in milliseconds.
func (win *window) latencies() (job, first []float64) {
	for _, j := range win.jobs {
		if j.failed() != "" {
			continue
		}
		job = append(job, ms(j.latency()))
		if len(j.seedEvs) > 0 {
			first = append(first, ms(j.seedEvs[0].at.Sub(j.submit)))
		}
	}
	return job, first
}
