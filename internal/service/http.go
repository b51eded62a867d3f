package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
)

// maxSpecBytes bounds the POST /v1/jobs body.
const maxSpecBytes = 1 << 20

// Handler returns the service's HTTP API:
//
//	POST   /v1/jobs             submit a JobSpec            → 202 JobStatus
//	GET    /v1/jobs             list jobs                   → 200 []JobStatus
//	GET    /v1/jobs/{id}        job status + results        → 200 JobStatus
//	GET    /v1/jobs/{id}/stream NDJSON round-level progress → 200 Event lines
//	                            (?from=N skips events with seq ≤ N)
//	DELETE /v1/jobs/{id}        cancel                      → 200 JobStatus
//	GET    /healthz             liveness                    → 200
//	GET    /readyz              readiness + replay summary  → 200 / 503
//	GET    /metrics             Prometheus text metrics     → 200
//	/debug/pprof/*              runtime profiling
//
// Queue-full submissions get 429 with a Retry-After hint; submissions during
// drain or journal replay get 503; spec validation failures get 400.
//
// The concrete *ServeMux return lets embedders (the daemon's Routes hook)
// mount additional endpoints — the fleet coordinator's /fleet/v1/* live on
// the same mux.
func (s *Service) Handler() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = s.WriteMetrics(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorBody{Error: err.Error()})
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	st, err := s.Submit(spec)
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, ErrDraining), errors.Is(err, ErrNotReady):
		writeError(w, http.StatusServiceUnavailable, err)
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
	default:
		writeJSON(w, http.StatusAccepted, st)
	}
}

// readyBody is the /readyz response: readiness plus the journal replay
// summary (partial — the zero value — while the replay is still running).
type readyBody struct {
	Status string         `json:"status"` // ready | replaying | draining
	Replay *ReplaySummary `json:"replay,omitempty"`
}

// handleReady serves readiness: 503 while the journal is replaying or the
// service is draining (load shedding — orchestrators route traffic away),
// 200 once submissions are accepted. The body carries the replay summary so
// an operator watching a recovery sees what came back.
func (s *Service) handleReady(w http.ResponseWriter, r *http.Request) {
	body := readyBody{Status: "ready"}
	if summary, done := s.ReplayStatus(); done {
		body.Replay = &summary
	}
	status := http.StatusOK
	switch {
	case !s.ready.Load():
		body.Status = "replaying"
		status = http.StatusServiceUnavailable
	case !s.Ready():
		body.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, body)
}

func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.List())
}

func (s *Service) handleGet(w http.ResponseWriter, r *http.Request) {
	st, err := s.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, err := s.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleStream serves NDJSON progress: one Event per line as the job runs,
// closed by a final {"type":"status"} line carrying the terminal JobStatus.
// Slow consumers lose round events (the buffer drops, never blocks the
// engine) but always receive the terminal line. ?from=N suppresses events
// with seq ≤ N — a reconnecting client (including across a daemon restart,
// where a resumed job continues its journaled seq numbering) passes the last
// seq it saw and receives no duplicates.
func (s *Service) handleStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var from uint64
	if v := r.URL.Query().Get("from"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad from parameter %q: %w", v, err))
			return
		}
		from = n
	}
	ch, unsub, err := s.Subscribe(id)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	defer unsub()
	s.metrics.streams.Add(1)
	defer s.metrics.streams.Add(-1)

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	flush()

	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	done := r.Context().Done()
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				// Terminal: emit the final status line.
				if st, err := s.Get(id); err == nil {
					_ = enc.Encode(Event{Type: "status", Job: st})
					flush()
				}
				return
			}
			if ev.Seq > from { // seq ≤ from was delivered before the reconnect
				if enc.Encode(ev) != nil {
					return // client went away
				}
			}
			// Flush once the queued events are written: a consumer that
			// keeps up gets each event at once, one that lags catches up
			// with one write per batch instead of one per event.
			if len(ch) == 0 {
				flush()
			}
		case <-done:
			return
		}
	}
}
