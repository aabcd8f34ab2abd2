package dist

import (
	"crypto/sha256"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"suit/internal/engine"
)

// maxResultBytes bounds a result post's body. Outcomes are small JSON
// documents (a few KB with a timeline); 4 MiB is generous headroom, and
// the cap turns a runaway or malicious body into a clean 413.
const maxResultBytes = 4 << 20

// claimHeldHeader marks a 204 claim answer that the daemon held for its
// bound. A daemon that answers an empty claim at once sends no such
// header, and a worker treats that 204 as a failed claim and backs off
// instead of claiming again in a loop.
const claimHeldHeader = "Suit-Claim-Held"

// Register mounts the work-distribution endpoints on mux (Go 1.22
// method+pattern routing):
//
//	POST /v1/work/claim              → claim one leased unit, held until one is ready (204 with Suit-Claim-Held if none within the hold, 409 on a revision mismatch, 503 once the dispatcher closes)
//	POST /v1/work/{lease}/heartbeat  → extend a lease (410 if gone)
//	POST /v1/work/{lease}/result     → deliver a result (202/200/409/410/422)
//
// With Config.WorkerToken set, every endpoint additionally answers 401
// unless the request carries the matching bearer token.
func (d *Dispatcher) Register(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/work/claim", d.auth(d.handleClaim))
	mux.HandleFunc("POST /v1/work/{lease}/heartbeat", d.auth(d.handleHeartbeat))
	mux.HandleFunc("POST /v1/work/{lease}/result", d.auth(d.handleResult))
}

// auth gates a handler behind Config.WorkerToken. The digest on a
// result only proves the body survived transport intact; it says
// nothing about who computed it, so authenticity has to come from the
// connection — this token, or the network boundary when it is empty.
// Tokens are compared as SHA-256 digests in constant time.
func (d *Dispatcher) auth(h http.HandlerFunc) http.HandlerFunc {
	token := d.cfg.WorkerToken
	if token == "" {
		return h
	}
	want := sha256.Sum256([]byte(token))
	return func(w http.ResponseWriter, r *http.Request) {
		presented, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
		got := sha256.Sum256([]byte(presented))
		if !ok || subtle.ConstantTimeCompare(got[:], want[:]) != 1 {
			w.Header().Set("WWW-Authenticate", `Bearer realm="suitd work distribution"`)
			httpError(w, http.StatusUnauthorized, "missing or invalid worker token")
			return
		}
		h(w, r)
	}
}

func (d *Dispatcher) handleClaim(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, 4096)
	var req ClaimRequest
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad claim body: "+err.Error())
		return
	}
	// Read the body to its end: only then does the server watch the
	// connection, so that a worker that goes away mid-hold ends
	// r.Context() and is granted nothing.
	_, _ = io.Copy(io.Discard, body)
	if req.WorkerID == "" {
		httpError(w, http.StatusBadRequest, "claim must name a worker_id")
		return
	}
	if req.Revision != engine.ResultsRevision {
		// Refused before Claim, so the worker never counts as live: a
		// daemon would otherwise park offers that no worker can claim.
		d.mu.Lock()
		d.stats.RevisionRefusals++
		d.mu.Unlock()
		httpError(w, http.StatusConflict, fmt.Sprintf(
			"worker results revision %d, daemon results revision %d: rebuild the worker", req.Revision, engine.ResultsRevision))
		return
	}
	grant, ok, err := d.awaitClaim(r.Context(), req.WorkerID, d.claimHold())
	switch {
	case errors.Is(err, errClosed):
		httpError(w, http.StatusServiceUnavailable, "dispatcher closed: the daemon is draining")
	case err != nil:
		// The worker's request went away; nobody reads an answer.
	case !ok:
		w.Header().Set(claimHeldHeader, "1")
		w.WriteHeader(http.StatusNoContent) // no work within the hold; claim again
	default:
		writeJSON(w, http.StatusOK, grant)
	}
}

func (d *Dispatcher) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	ttl, ok := d.Heartbeat(r.PathValue("lease"))
	if !ok {
		// Gone: expired and reassigned, or the job was abandoned. The
		// worker should stop computing this unit.
		httpError(w, http.StatusGone, "lease gone")
		return
	}
	writeJSON(w, http.StatusOK, map[string]int64{"ttl_ms": ttl.Milliseconds()})
}

func (d *Dispatcher) handleResult(w http.ResponseWriter, r *http.Request) {
	var msg ResultMsg
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxResultBytes)).Decode(&msg); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge, "result body exceeds the limit")
			return
		}
		httpError(w, http.StatusBadRequest, "bad result body: "+err.Error())
		return
	}
	status, err := d.Result(r.PathValue("lease"), msg)
	if err != nil {
		switch {
		case errors.Is(err, ErrGone):
			httpError(w, http.StatusGone, err.Error())
		case errors.Is(err, ErrConflict):
			httpError(w, http.StatusConflict, err.Error())
		case errors.Is(err, ErrBadDigest), errors.Is(err, ErrMismatch):
			httpError(w, http.StatusUnprocessableEntity, err.Error())
		default:
			httpError(w, http.StatusInternalServerError, err.Error())
		}
		return
	}
	code := http.StatusOK
	if status == "accepted" {
		code = http.StatusAccepted
	}
	writeJSON(w, code, ResultAck{Status: status})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
