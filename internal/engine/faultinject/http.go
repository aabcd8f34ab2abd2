package faultinject

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"suit/internal/engine"
)

// HTTPKind enumerates the injectable transport faults. They mirror what
// a flaky network actually does to a request: lose it, slow it, answer
// with a server error, tear the response body, or deliver it twice.
type HTTPKind int

const (
	// HTTPNone passes the request through untouched.
	HTTPNone HTTPKind = iota
	// HTTPDrop loses the request before it reaches the server: the
	// caller sees a transport error, the server sees nothing.
	HTTPDrop
	// HTTPDelay delivers the request after a pause (bounded by the
	// request context, so cancellation still wins).
	HTTPDelay
	// HTTPErr500 delivers the request — the server processes it — but
	// replaces the response with a 500, like a dying proxy. This is the
	// fault that forces the at-least-once path: the sender must retry a
	// request whose effect already happened.
	HTTPErr500
	// HTTPTruncate delivers the request but tears the response body
	// below its Content-Length, so the reader hits unexpected EOF.
	HTTPTruncate
	// HTTPDup delivers the request twice back-to-back and returns the
	// second response — an at-least-once duplicate without any failure
	// signal to the sender.
	HTTPDup
)

func (k HTTPKind) String() string {
	switch k {
	case HTTPNone:
		return "none"
	case HTTPDrop:
		return "drop"
	case HTTPDelay:
		return "delay"
	case HTTPErr500:
		return "err500"
	case HTTPTruncate:
		return "truncate"
	case HTTPDup:
		return "dup"
	default:
		return fmt.Sprintf("HTTPKind(%d)", int(k))
	}
}

// AllHTTPKinds lists every real fault (everything but HTTPNone), in a
// fixed order chaos tests can sweep.
var AllHTTPKinds = []HTTPKind{HTTPDrop, HTTPDelay, HTTPErr500, HTTPTruncate, HTTPDup}

// HTTPPlan decides which requests fault and how. The choice is a pure
// function of the request fingerprint and the seed — never of the wall
// clock or the global rand source — so a chaos run replays bit-for-bit
// at any concurrency.
type HTTPPlan struct {
	// Seed feeds the per-request fault decision.
	Seed uint64
	// Rate is the fraction of requests faulted (0..1).
	Rate float64
	// Kinds is the fault palette: a faulted request's kind is chosen
	// from this slice, again by hash. Empty defaults to AllHTTPKinds.
	Kinds []HTTPKind
	// Times bounds how many times a given request fingerprint faults
	// before passing through clean; 0 defaults to 2, negative means
	// every time. The bound guarantees chaos runs terminate: a retried
	// request eventually gets through.
	Times int
	// Delay is the HTTPDelay pause. 0 defaults to 5ms.
	Delay time.Duration
}

func (p HTTPPlan) kinds() []HTTPKind {
	if len(p.Kinds) == 0 {
		return AllHTTPKinds
	}
	return p.Kinds
}

func (p HTTPPlan) times() int {
	if p.Times == 0 {
		return 2
	}
	return p.Times
}

func (p HTTPPlan) delay() time.Duration {
	if p.Delay <= 0 {
		return 5 * time.Millisecond
	}
	return p.Delay
}

// Decide returns the fault for a request fingerprint — deterministic,
// order-free, uniform.
func (p HTTPPlan) Decide(key string) HTTPKind {
	if p.Rate <= 0 {
		return HTTPNone
	}
	h := engine.DeriveSeed(p.Seed, "faultinject-http|"+key)
	if float64(h) >= p.Rate*float64(^uint64(0)) {
		return HTTPNone
	}
	kinds := p.kinds()
	pick := engine.DeriveSeed(p.Seed, "faultinject-http-kind|"+key)
	return kinds[pick%uint64(len(kinds))]
}

// ErrInjectedHTTP is the transport error HTTPDrop produces.
var ErrInjectedHTTP = fmt.Errorf("%w: request dropped in transport", ErrInjected)

// HTTPStats counts injected faults by kind.
type HTTPStats struct {
	Requests  int64
	Drops     int64
	Delays    int64
	Err500s   int64
	Truncates int64
	Dups      int64
}

// Transport is a fault-injecting http.RoundTripper: it wraps a real
// transport and applies the plan's fault to each request, keyed by a
// pure hash of (method, path, body) so the same request faults the same
// way in every run regardless of timing or interleaving. Per-key fault
// counts are bounded by Plan.Times, so retried requests eventually get
// through and chaos runs terminate.
type Transport struct {
	Plan HTTPPlan
	// Base is the real transport. Nil defaults to
	// http.DefaultTransport.
	Base http.RoundTripper

	mu       sync.Mutex
	attempts map[string]int
	stats    HTTPStats
}

// NewTransport builds a fault-injecting transport over base.
func NewTransport(plan HTTPPlan, base http.RoundTripper) *Transport {
	return &Transport{Plan: plan, Base: base, attempts: make(map[string]int)}
}

// Stats snapshots the fault counters.
func (t *Transport) Stats() HTTPStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
}

// RequestKey fingerprints a request for the fault decision: method,
// path, and a short hash of the body. Two retries of one logical
// request share a key (and thus a bounded fault budget); two different
// results never collide on faults just because they hit the same URL.
func RequestKey(method, path string, body []byte) string {
	sum := sha256.Sum256(body)
	return method + " " + path + " " + hex.EncodeToString(sum[:4])
}

// RoundTrip implements http.RoundTripper.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	body, restore, err := snapshotBody(req)
	if err != nil {
		return nil, err
	}
	key := RequestKey(req.Method, req.URL.Path, body)

	t.mu.Lock()
	t.stats.Requests++
	t.attempts[key]++
	attempt := t.attempts[key]
	t.mu.Unlock()

	kind := t.Plan.Decide(key)
	if kind == HTTPNone || (t.Plan.times() >= 0 && attempt > t.Plan.times()) {
		return t.base().RoundTrip(restore(req))
	}

	switch kind {
	case HTTPDrop:
		t.count(func(s *HTTPStats) { s.Drops++ })
		return nil, fmt.Errorf("%w (%s)", ErrInjectedHTTP, key)
	case HTTPDelay:
		t.count(func(s *HTTPStats) { s.Delays++ })
		wd := time.NewTimer(t.Plan.delay()) //lint:allow determinism the injected delay paces delivery only; which requests fault, and how, is decided by the pure request-key hash above
		defer wd.Stop()
		select {
		case <-wd.C:
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
		return t.base().RoundTrip(restore(req))
	case HTTPErr500:
		// The request must REACH the server — the whole point is that
		// its effect happens and only the acknowledgment is lost.
		t.count(func(s *HTTPStats) { s.Err500s++ })
		resp, err := t.base().RoundTrip(restore(req))
		if err != nil {
			return nil, err
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		return syntheticResponse(req, http.StatusInternalServerError, []byte(`{"error":"injected upstream failure"}`)), nil
	case HTTPTruncate:
		resp, err := t.base().RoundTrip(restore(req))
		if err != nil {
			return nil, err
		}
		full, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			return nil, rerr
		}
		if len(full) < 2 {
			return syntheticResponseFrom(resp, full), nil // nothing to tear
		}
		t.count(func(s *HTTPStats) { s.Truncates++ })
		// Deliver half the bytes under the original Content-Length and
		// end the body with unexpected EOF — exactly what net/http
		// surfaces when the connection dies mid-body.
		torn := syntheticResponseFrom(resp, full[:len(full)/2])
		torn.Body = io.NopCloser(&tornReader{r: bytes.NewReader(full[:len(full)/2])})
		torn.ContentLength = int64(len(full))
		torn.Header.Set("Content-Length", strconv.Itoa(len(full)))
		return torn, nil
	case HTTPDup:
		t.count(func(s *HTTPStats) { s.Dups++ })
		first, err := t.base().RoundTrip(restore(req))
		if err == nil {
			io.Copy(io.Discard, first.Body) //nolint:errcheck
			first.Body.Close()
		}
		second := req.Clone(req.Context())
		return t.base().RoundTrip(restore(second))
	default:
		return t.base().RoundTrip(restore(req))
	}
}

func (t *Transport) base() http.RoundTripper {
	if t.Base != nil {
		return t.Base
	}
	return http.DefaultTransport
}

func (t *Transport) count(f func(*HTTPStats)) {
	t.mu.Lock()
	f(&t.stats)
	t.mu.Unlock()
}

// snapshotBody reads a request's body into memory and returns a restore
// function that re-arms it (and any clone) for an actual send. The
// transport needs the bytes twice: once for the fault-decision key, and
// possibly twice more for a duplicated delivery.
func snapshotBody(req *http.Request) (body []byte, restore func(*http.Request) *http.Request, err error) {
	if req.Body == nil {
		return nil, func(r *http.Request) *http.Request { return r }, nil
	}
	if req.GetBody != nil {
		rc, err := req.GetBody()
		if err != nil {
			return nil, nil, err
		}
		body, err = io.ReadAll(rc)
		rc.Close()
		if err != nil {
			return nil, nil, err
		}
	} else {
		body, err = io.ReadAll(req.Body)
		req.Body.Close()
		if err != nil {
			return nil, nil, err
		}
	}
	restore = func(r *http.Request) *http.Request {
		r.Body = io.NopCloser(bytes.NewReader(body))
		r.GetBody = func() (io.ReadCloser, error) {
			return io.NopCloser(bytes.NewReader(body)), nil
		}
		r.ContentLength = int64(len(body))
		return r
	}
	return body, restore, nil
}

// tornReader yields its bytes and then io.ErrUnexpectedEOF instead of
// a clean EOF, like a response body cut off by a dying connection.
type tornReader struct {
	r io.Reader
}

func (t *tornReader) Read(p []byte) (int, error) {
	n, err := t.r.Read(p)
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return n, err
}

// syntheticResponse fabricates a response for req.
func syntheticResponse(req *http.Request, code int, body []byte) *http.Response {
	return &http.Response{
		Status:        fmt.Sprintf("%d %s", code, http.StatusText(code)),
		StatusCode:    code,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        http.Header{"Content-Type": []string{"application/json"}},
		Body:          io.NopCloser(bytes.NewReader(body)),
		ContentLength: int64(len(body)),
		Request:       req,
	}
}

// syntheticResponseFrom rebuilds resp with a replacement body, keeping
// status and headers.
func syntheticResponseFrom(resp *http.Response, body []byte) *http.Response {
	out := *resp
	out.Body = io.NopCloser(bytes.NewReader(body))
	out.ContentLength = int64(len(body))
	out.Header = resp.Header.Clone()
	return &out
}
