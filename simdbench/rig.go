package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"noisypull/internal/fleet"
	"noisypull/internal/service"
)

// fleetSecret is the shared secret every fleet RPC is signed with.
const fleetSecret = "simdbench-fleet-secret"

// fleetWorkers is the worker count of the fleet workload, one slot each.
const fleetWorkers = 2

// rig is one in-process simd: a service.Service with a journal directory
// served over httptest, plus, for a fleet workload, the coordinator it
// dispatches to and the workers that poll it.
type rig struct {
	w       workload
	dir     string
	svc     *service.Service
	srv     *httptest.Server
	coord   *fleet.Coordinator
	workers []*fleet.Worker
	wire    []*wireTransport // traced rigs only
	client  *service.Client
	conns   []*http.Transport
	t       *tracer
}

// startRig opens the daemon, waits for its journal to be ready and, for a
// fleet workload, for every worker to register. A nil tracer leaves every
// layer unwrapped.
func startRig(ctx context.Context, w workload, dir string, t *tracer) (*rig, error) {
	r := &rig{w: w, dir: dir, t: t}
	cfg := service.Config{JournalDir: dir}
	if w.fleet {
		r.coord = fleet.NewCoordinator(fleet.Config{VerifySeeds: 2, Secret: fleetSecret})
		cfg.Dispatcher = r.coord
		if t != nil {
			cfg.Dispatcher = timedDispatcher{d: r.coord, t: t}
		}
		cfg.ExtraMetrics = r.coord.WriteMetrics
	}
	svc, err := service.Open(cfg)
	if err != nil {
		r.close()
		return nil, fmt.Errorf("open service: %w", err)
	}
	r.svc = svc
	mux := svc.Handler()
	if r.coord != nil {
		r.coord.Bind(svc)
		var mw func(http.Handler) http.Handler
		if t != nil {
			mw = serverSpans(t)
		}
		r.coord.RoutesWith(mux, mw)
	}
	r.srv = httptest.NewServer(mux)
	r.client = service.NewClient(r.srv.URL)
	r.client.HTTPClient = &http.Client{Transport: r.transport()}
	if err := waitFor(ctx, svc.Ready); err != nil {
		r.close()
		return nil, fmt.Errorf("journal replay: %w", err)
	}
	if w.fleet {
		for i := 0; i < fleetWorkers; i++ {
			node := fmt.Sprintf("bench-w%d", i)
			var rt http.RoundTripper = r.transport()
			if t != nil {
				wt := &wireTransport{base: rt, node: node, t: t}
				r.wire = append(r.wire, wt)
				rt = wt
			}
			wc := service.NewClient(r.srv.URL)
			wc.HTTPClient = &http.Client{Transport: rt}
			wk := fleet.NewWorker(fleet.WorkerConfig{Coordinator: r.srv.URL, NodeID: node, Slots: 1, Client: wc, Secret: fleetSecret})
			wk.Start()
			r.workers = append(r.workers, wk)
		}
		registered := func() bool {
			alive := 0
			for _, n := range r.coord.Nodes() {
				if n.Alive {
					alive++
				}
			}
			return alive == fleetWorkers
		}
		if err := waitFor(ctx, registered); err != nil {
			r.close()
			return nil, fmt.Errorf("fleet registration: %w", err)
		}
	}
	return r, nil
}

// transport returns a fresh connection pool the rig closes on shutdown.
func (r *rig) transport() *http.Transport {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	r.conns = append(r.conns, tr)
	return tr
}

// waitFor polls cond every millisecond until it holds, for at most 30s.
func waitFor(ctx context.Context, cond func() bool) error {
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	for !cond() {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
	return nil
}

// close stops the workers, the coordinator, the HTTP server and the service,
// in that order, and waits for each.
func (r *rig) close() {
	for _, wk := range r.workers {
		wk.Close()
	}
	if r.coord != nil {
		r.coord.Close()
	}
	for _, tr := range r.conns {
		tr.CloseIdleConnections()
	}
	if r.srv != nil {
		r.srv.Close()
	}
	if r.svc != nil {
		r.svc.Close()
	}
}

// scrape reads the daemon's /metrics over HTTP and, for a fleet rig, each
// worker's metrics, summing same-named series across workers.
func (r *rig) scrape(ctx context.Context) (map[string]float64, error) {
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.srv.URL+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := r.client.HTTPClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	var buf bytes.Buffer
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	r.t.add("service.metrics_scrape", "", 0, start, time.Now())
	m := map[string]float64{}
	parseMetrics(buf.String(), m)
	for _, wk := range r.workers {
		buf.Reset()
		if err := wk.WriteMetrics(&buf); err != nil {
			return nil, fmt.Errorf("worker metrics: %w", err)
		}
		parseMetrics(buf.String(), m)
	}
	return m, nil
}

// parseMetrics adds each sample of a Prometheus text exposition to m, keyed
// by the series name with its labels.
func parseMetrics(text string, m map[string]float64) {
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			m[line[:i]] += v
		}
	}
}

// journalBytes is the total size of the files in the rig's journal directory.
func (r *rig) journalBytes() int64 {
	var n int64
	entries, _ := os.ReadDir(r.dir)
	for _, e := range entries {
		if info, err := os.Stat(filepath.Join(r.dir, e.Name())); err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n
}
