package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"noisypull/internal/fleet"
	"noisypull/internal/service"
)

// span is one timed call across a layer boundary. Times are nanoseconds since
// the tracer started; Parent is 0 for a root span.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Job    string `json:"job,omitempty"`
	Node   string `json:"node,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int    `json:"bytes,omitempty"`
	// Seeds lists the trial seeds a lease or result delivery carried.
	Seeds []uint64 `json:"seeds,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run writes them out. A nil tracer
// records nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newID reserves a span id, for parents that end after their children.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// ns converts a wall time to the tracer's clock.
func (t *tracer) ns(at time.Time) int64 { return int64(at.Sub(t.t0)) }

// record stores s, giving it an id unless it has one.
func (t *tracer) record(s span) {
	if t == nil {
		return
	}
	if s.ID == 0 {
		s.ID = t.newID()
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// add records a span from wall times.
func (t *tracer) add(name, job string, parent int64, start, end time.Time) {
	if t != nil {
		t.record(span{Name: name, Job: job, Parent: parent, Start: t.ns(start), End: t.ns(end)})
	}
}

// named returns the recorded spans called name.
func (t *tracer) named(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// write dumps every span as one JSON line to path.
func (t *tracer) write(file string) error {
	if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
		return err
	}
	f, err := os.Create(file)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err == nil {
			err = enc.Encode(s)
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// wireTransport wraps a traced fleet worker's RPC transport. It counts RPCs
// and body bytes and records a span per RPC, carrying the lease a poll handed
// out or the seeds a result delivery carried.
type wireTransport struct {
	base  http.RoundTripper
	node  string
	t     *tracer
	rpcs  atomic.Int64
	bytes atomic.Int64 // request plus response bodies
}

func (wt *wireTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	var reqBody []byte
	if req.GetBody != nil {
		if rc, err := req.GetBody(); err == nil {
			reqBody, _ = io.ReadAll(rc)
			rc.Close()
		}
	}
	start := time.Now()
	resp, err := wt.base.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	respBody, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(respBody))
	end := time.Now()
	wt.rpcs.Add(1)
	wt.bytes.Add(int64(len(reqBody) + len(respBody)))
	s := span{Name: "fleet.rpc." + path.Base(req.URL.Path), Node: wt.node,
		Start: wt.t.ns(start), End: wt.t.ns(end), Bytes: len(reqBody) + len(respBody)}
	switch req.URL.Path {
	case fleet.PathPoll:
		var pr fleet.PollResponse
		if json.Unmarshal(respBody, &pr) == nil && pr.Lease != nil {
			s.Name, s.Job, s.Seeds = "fleet.rpc.poll_lease", pr.Lease.Job, pr.Lease.Seeds
		}
	case fleet.PathResult:
		var rr fleet.ResultRequest
		if json.Unmarshal(reqBody, &rr) == nil {
			s.Job = jobOfLease(rr.LeaseID)
			for _, r := range rr.Results {
				s.Seeds = append(s.Seeds, r.Seed)
			}
		}
	}
	wt.t.record(s)
	return resp, nil
}

// jobOfLease recovers the job id from a lease id of the form l-<job>-<n>.
func jobOfLease(id string) string {
	if len(id) < 3 || id[:2] != "l-" {
		return ""
	}
	for i := len(id) - 1; i > 2; i-- {
		if id[i] == '-' {
			return id[2:i]
		}
	}
	return ""
}

// serverSpans is the coordinator's RoutesWith middleware: one span per fleet
// request, timed inside the server (authentication, decode, attestation,
// quorum and merge for a result delivery).
func serverSpans(t *tracer) func(http.Handler) http.Handler {
	return func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			start := time.Now()
			h.ServeHTTP(w, r)
			t.add("fleet.handle."+path.Base(r.URL.Path), "", 0, start, time.Now())
		})
	}
}

// timedDispatcher wraps the coordinator's service.Dispatcher with one span per
// dispatched job.
type timedDispatcher struct {
	d service.Dispatcher
	t *tracer
}

func (td timedDispatcher) Dispatch(ctx context.Context, job service.DispatchJob, emit func(service.SeedResult)) error {
	start := time.Now()
	err := td.d.Dispatch(ctx, job, emit)
	td.t.add("service.dispatch", job.ID, 0, start, time.Now())
	return err
}
