// Package api is the HTTP layer ibserve and ibrouter share: the request
// shell every query endpoint runs inside (root span, deadline, body cap,
// disjoint served/error accounting, SLO record, access log), the error
// taxonomy that maps failures to statuses, the JSON wire types of the query
// API, the /readyz state, the rolling SLO tracker and the listen-and-drain
// loop of both binaries. What differs between the two — serve's admission
// semaphore, serving generations and response cache; the router's fan-out,
// merge and partial marking — stays in each package's handler closures.
package api

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
)

// Endpoint is one query endpoint's served/error/latency triple. Served
// requests and failures are disjoint: a request ticks exactly one of
// Requests or Errors.
type Endpoint struct {
	Name     string
	Requests *obs.Counter
	Errors   *obs.Counter
	Latency  *obs.Histogram
}

// Help words an endpoint's three series; each is a format string taking
// the endpoint name.
type Help struct {
	Requests, Errors, Latency string
}

// Error pairs an HTTP status with the underlying error.
type Error struct {
	Status int
	Err    error
}

func (e *Error) Error() string { return e.Err.Error() }
func (e *Error) Unwrap() error { return e.Err }

// Errorf builds an *Error with the given status.
func Errorf(status int, format string, args ...any) error {
	return &Error{Status: status, Err: fmt.Errorf(format, args...)}
}

// BadRequest builds a 400 *Error.
func BadRequest(format string, args ...any) error {
	return Errorf(http.StatusBadRequest, format, args...)
}

// BodyError classifies a request-body read or decode failure on endpoint:
// a MaxBytesReader trip is the client sending too much (413, naming the
// cap), anything else a plain 400. prefix names the binary ("serve",
// "router").
func BodyError(prefix, endpoint string, err error) error {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return Errorf(http.StatusRequestEntityTooLarge,
			"%s: %s request body exceeds the %d-byte limit", prefix, endpoint, mbe.Limit)
	}
	return BadRequest("%s: bad %s request body: %v", prefix, endpoint, err)
}

// StatusFor maps an error to its response status: an explicit *Error
// status, 504 for deadline/cancellation, else 400 (the remaining errors are
// core's argument validation).
func StatusFor(err error) int {
	var ae *Error
	if errors.As(err, &ae) {
		return ae.Status
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return http.StatusGatewayTimeout
	}
	return http.StatusBadRequest
}

// Encode renders v as a response body: JSON plus a trailing newline. A
// marshal failure is a 500.
func Encode(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, &Error{Status: http.StatusInternalServerError, Err: err}
	}
	return append(b, '\n'), nil
}

// Reply is a shell handler's answer: a rendered body and its status (0
// means 200). A status >= 400 reply is a failure passed through verbatim —
// a router relaying a shard's client-error verdict.
type Reply struct {
	Status int
	Body   []byte
}

// Handler answers one request inside the shell. It may set response
// headers on w but must not write the body: the shell does, from the Reply
// or, on error, as {"error": ...} with StatusFor's status.
type Handler func(ctx context.Context, w http.ResponseWriter, r *http.Request) (Reply, error)

// Shell is the request pipeline every query endpoint of a binary runs
// inside. Timeout is the per-request deadline; MaxBodyBytes <= 0 means no
// body cap; Logger and Tracer must be set.
type Shell struct {
	// Prefix names the binary: root spans are "<Prefix>.<endpoint>" and the
	// endpoint series "<Prefix>_<endpoint>_*".
	Prefix       string
	Help         Help
	Timeout      time.Duration
	MaxBodyBytes int64
	Logger       *slog.Logger
	Tracer       *trace.Tracer
	// Quiet suppresses access lines for successful requests; failures and
	// slow queries still log.
	Quiet bool
	// SLO, when non-nil, receives every finished request.
	SLO *SLOTracker
	// LogAttrs, when set, appends binary-specific attributes to every
	// access line (ibserve's serving generation).
	LogAttrs func() []any
}

// Endpoint registers the named endpoint's series on the shared registry.
func (s *Shell) Endpoint(name string) *Endpoint {
	p := s.Prefix + "_" + name
	return &Endpoint{
		Name:     name,
		Requests: obs.Default().Counter(p+"_requests_total", fmt.Sprintf(s.Help.Requests, name)),
		Errors:   obs.Default().Counter(p+"_errors_total", fmt.Sprintf(s.Help.Errors, name)),
		Latency:  obs.Default().Histogram(p+"_latency_seconds", fmt.Sprintf(s.Help.Latency, name), obs.DefBuckets),
	}
}

// Wrap runs h inside the request shell, in this order: a root span
// "<Prefix>.<endpoint>" joining an incoming W3C traceparent (the assigned
// IDs are echoed back in the response's traceparent header); the
// timeout_ms-clamped deadline; the body cap; then, once h answers, disjoint
// accounting — a status >= 400 ticks Errors, anything else ticks Requests
// plus a latency sample carrying the trace ID as exemplar — the SLO record
// and one access-log line.
func (s *Shell) Wrap(ep *Endpoint, h Handler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		ctx := r.Context()
		var sp *trace.Span
		if tp, ok := trace.ParseTraceparent(r.Header.Get("traceparent")); ok {
			ctx, sp = s.Tracer.StartRemote(ctx, tp, s.Prefix+"."+ep.Name)
		} else {
			ctx, sp = s.Tracer.Start(ctx, s.Prefix+"."+ep.Name)
		}
		if sp.Active() {
			sp.Attr("method", r.Method)
			sp.Attr("path", r.URL.Path)
			w.Header().Set("traceparent", trace.FormatTraceparent(sp.TraceID(), sp.SpanID()))
		}
		status := http.StatusOK
		var reason string // the refusal reason of a failed request
		defer func() {
			dur := time.Since(start)
			sp.AttrInt("status", int64(status))
			sp.End()
			s.SLO.Record(ep.Name, status, dur)
			s.logRequest(r, ep.Name, status, dur, sp, reason)
		}()

		ctx, cancel := context.WithTimeout(ctx, s.requestTimeout(r))
		defer cancel()
		// Bound bodies before the handler reads them: a body past the cap
		// surfaces as *http.MaxBytesError and maps to 413 through BodyError
		// (and MaxBytesReader also closes the connection, so a huge upload
		// stops early instead of being read to the end and discarded).
		if r.Body != nil && s.MaxBodyBytes > 0 {
			r.Body = http.MaxBytesReader(w, r.Body, s.MaxBodyBytes)
		}

		reply, err := h(ctx, w, r)
		if err != nil {
			ep.Errors.Inc()
			status, reason = StatusFor(err), err.Error()
			sp.Error(err)
			s.WriteError(w, r, status, err)
			return
		}
		if reply.Status != 0 {
			status = reply.Status
		}
		if status >= 400 {
			ep.Errors.Inc()
			reason = replyReason(reply.Body)
		} else {
			ep.Requests.Inc()
			// Traced requests leave their trace ID as a bucket exemplar on
			// the latency histogram; untraced traffic keeps the
			// allocation-free path.
			if sp.Active() {
				ep.Latency.ObserveExemplar(time.Since(start).Seconds(), sp.TraceID().String())
			} else {
				ep.Latency.Observe(time.Since(start).Seconds())
			}
		}
		w.Header().Set("Content-Type", "application/json")
		if status != http.StatusOK {
			w.WriteHeader(status)
		}
		_, _ = w.Write(reply.Body)
	}
}

// replyReason recovers the refusal reason from a passed-through error body
// ({"error": "..."}), falling back to the raw body.
func replyReason(body []byte) string {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return e.Error
	}
	return strings.TrimSpace(string(body))
}

// requestTimeout returns the per-request deadline: Timeout, optionally
// tightened by a timeout_ms query parameter. The parameter can only shrink
// the deadline, so clients can bound their own tail latency but never
// extend the server's. The comparison runs in milliseconds, before the
// Duration conversion: a huge value (or Inf) would overflow that conversion
// into a negative, already-expired deadline.
func (s *Shell) requestTimeout(r *http.Request) time.Duration {
	d := s.Timeout
	if v := r.URL.Query().Get("timeout_ms"); v != "" {
		limit := float64(d) / float64(time.Millisecond)
		if ms, err := strconv.ParseFloat(v, 64); err == nil && ms > 0 && ms < limit {
			d = time.Duration(ms * float64(time.Millisecond))
		}
	}
	return d
}

// logRequest emits one structured access-log line per request: endpoint,
// method, path, status, duration, the LogAttrs extras, the trace ID to paste
// into /debug/traces/{id} when traced, and the refusal reason of a failure.
// Failures (status >= 400) log at Warn and survive Quiet; successes log at
// Info unless Quiet. Requests at or over the tracer's slow threshold also
// get a dedicated slow-query line, which survives Quiet too.
func (s *Shell) logRequest(r *http.Request, name string, status int, dur time.Duration, sp *trace.Span, reason string) {
	slow := s.Tracer.SlowThreshold() > 0 && dur >= s.Tracer.SlowThreshold()
	if status < 400 && s.Quiet && !slow {
		return
	}
	attrs := []any{
		"endpoint", name,
		"method", r.Method,
		"path", r.URL.Path,
		"status", status,
		"dur_ms", float64(dur.Microseconds()) / 1e3,
	}
	if s.LogAttrs != nil {
		attrs = append(attrs, s.LogAttrs()...)
	}
	if sp.Active() {
		attrs = append(attrs, "trace", sp.TraceID().String())
	}
	switch {
	case status >= 400:
		attrs = append(attrs, "err", reason)
		s.Logger.Warn("request", attrs...)
	case !s.Quiet:
		s.Logger.Info("request", attrs...)
	}
	if slow {
		s.Logger.Warn("slow query", attrs...)
	}
}

// WriteError answers status with an {"error": ...} JSON body.
func (s *Shell) WriteError(w http.ResponseWriter, r *http.Request, status int, err error) {
	s.Logger.Debug("request failed", "path", r.URL.Path, "status", status, "err", err.Error())
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// Readiness is the GET /readyz state; the zero value is ready. Flip it to
// false at the start of a graceful shutdown — before connection draining
// begins — so load balancers and routers stop sending new work while
// in-flight requests finish; a scatter-gather router treats a not-ready
// shard exactly like one with a tripped breaker. It is distinct from
// /healthz (liveness): a draining process is still alive and answering
// in-flight queries, it just must not receive new ones.
type Readiness struct {
	draining atomic.Bool
}

// SetReady flips the /readyz state.
func (rd *Readiness) SetReady(ok bool) { rd.draining.Store(!ok) }

// Ready reports the /readyz state.
func (rd *Readiness) Ready() bool { return !rd.draining.Load() }

// ServeHTTP answers GET /readyz: 200 while serving, 503 once draining.
func (rd *Readiness) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if !rd.Ready() {
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = w.Write([]byte("{\"status\":\"draining\"}\n"))
		return
	}
	_, _ = w.Write([]byte("{\"status\":\"ready\"}\n"))
}
