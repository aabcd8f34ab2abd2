package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
)

// maxSpecBytes bounds a submission body; a spec listing a full
// explicit grid fits comfortably, anything larger is abuse.
const maxSpecBytes = 1 << 20

// jobView is the JSON shape of a job in API responses.
type jobView struct {
	ID    string  `json:"id"`
	State State   `json:"state"`
	Done  int     `json:"done"`
	Total int     `json:"total"`
	Error string  `json:"error,omitempty"`
	Spec  Spec    `json:"spec"`
	Href  string  `json:"href"`
	Rslt  *Result `json:"result,omitempty"`
}

// viewOf renders j; with withResult, a done job's result rides along.
// State and result are read under one lock, so a job that finishes
// while its view is built never shows as done without its result —
// clients take a done view's result as final.
func viewOf(j *Job, withResult bool) jobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := jobView{
		ID: j.ID, State: j.state, Done: j.done, Total: j.total,
		Error: j.err, Spec: j.Spec, Href: "/v1/sweeps/" + j.ID,
	}
	if withResult {
		v.Rslt = j.result
	}
	return v
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error      string `json:"error"`
	RetryAfter int    `json:"retry_after_seconds,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) // headers are out; an encode error here has no recourse
}

// Handler assembles the daemon's HTTP API:
//
//	POST /v1/sweeps                submit a spec; the job ID is its fingerprint digest
//	GET  /v1/sweeps                list jobs in submission order
//	GET  /v1/sweeps/{id}           status + result
//	GET  /v1/sweeps/{id}/events    progress stream (SSE)
//	GET  /metrics                  Prometheus text format
//	GET  /healthz                  pure liveness (200 while the process serves)
//	GET  /readyz                   readiness (503 while draining or remote-only with a tripped dispatcher)
//
// plus the distributed-work endpoints suitworker pulls from
// (POST /v1/work/claim, /v1/work/{lease}/heartbeat, /v1/work/{lease}/result).
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweeps", s.handleSubmit)
	mux.HandleFunc("GET /v1/sweeps", s.handleList)
	mux.HandleFunc("GET /v1/sweeps/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/sweeps/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.dist.Register(mux)
	return mux
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			// Distinguish "your spec is too large" from "your spec is
			// malformed": the former needs a smaller body, not a fixed one.
			writeJSON(w, http.StatusRequestEntityTooLarge, errorBody{
				Error: fmt.Sprintf("spec body exceeds the %d-byte limit", maxSpecBytes),
			})
			return
		}
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad spec: " + err.Error()})
		return
	}
	job, outcome, err := s.Submit(spec)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	switch outcome {
	case SubmitQueued:
		// A job whose points are all memo or cache hits can be done
		// already; its view then carries the result.
		writeJSON(w, http.StatusCreated, viewOf(job, true))
	case SubmitCoalesced:
		// Content-addressed hit: same spec, same job, no new execution.
		writeJSON(w, http.StatusOK, viewOf(job, true))
	case SubmitQueueFull:
		retry := s.RetryAfterSeconds()
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		writeJSON(w, http.StatusTooManyRequests, errorBody{
			Error:      "admission queue full; retry later",
			RetryAfter: retry,
		})
	case SubmitDraining:
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "daemon is draining; resubmit after restart"})
	default:
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: fmt.Sprintf("unhandled submit outcome %d", outcome)})
	}
}

func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.JobsInOrder()
	views := make([]jobView, len(jobs))
	for i, j := range jobs {
		views[i] = viewOf(j, false)
	}
	writeJSON(w, http.StatusOK, struct {
		Jobs []jobView `json:"jobs"`
	}{views})
}

func (s *Service) handleStatus(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown job " + r.PathValue("id")})
		return
	}
	writeJSON(w, http.StatusOK, viewOf(job, true))
}

// handleEvents streams job progress as Server-Sent Events: one
// `event: state` message per transition or progress tick, ending after
// the terminal event (clients see the stream close as completion).
func (s *Service) handleEvents(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown job " + r.PathValue("id")})
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusNotImplemented, errorBody{Error: "streaming unsupported by this connection"})
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	events, cancel := job.Subscribe()
	defer cancel()
	for {
		select {
		case ev, open := <-events:
			if !open {
				return
			}
			data, err := json.Marshal(ev)
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.State, data); err != nil {
				return
			}
			flusher.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.WriteMetrics(w)
}

// handleHealthz is pure liveness: 200 for as long as the process can
// serve HTTP, draining or not. Restart-deciding orchestration probes
// this; killing a daemon *because* it is draining gracefully would
// defeat the drain.
func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Status string `json:"status"`
	}{"ok"})
}

// handleReadyz is readiness: whether this daemon should receive new
// work. 503 while draining, and — for a remote-only daemon that cannot
// fall back locally — while the work dispatcher's breaker is tripped.
func (s *Service) handleReadyz(w http.ResponseWriter, r *http.Request) {
	status, code := "ready", http.StatusOK
	switch {
	case s.Draining():
		status, code = "draining", http.StatusServiceUnavailable
	case s.cfg.Dist.RemoteOnly && s.dist.Tripped():
		// With local fallback (the default) a tripped dispatcher costs
		// nothing: sweeps run in-process. Remote-only daemons have no such
		// floor, so a tripped breaker means submissions would stall.
		status, code = "dispatcher tripped", http.StatusServiceUnavailable
	}
	writeJSON(w, code, struct {
		Status string `json:"status"`
	}{status})
}
