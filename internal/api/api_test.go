package api

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
)

// testShell builds a shell whose access log lands in buf.
func testShell(buf *bytes.Buffer) *Shell {
	return &Shell{
		Prefix:       "apitest",
		Help:         Help{Requests: "%s served", Errors: "%s failed", Latency: "%s latency"},
		Timeout:      100 * time.Millisecond,
		MaxBodyBytes: 16,
		Logger:       slog.New(slog.NewTextHandler(buf, nil)),
		Tracer:       trace.NewTracer(8),
		Quiet:        true,
	}
}

// TestRequestTimeoutParam pins the timeout_ms contract: the parameter can
// only shrink the configured deadline, never extend it — including values
// too large for a time.Duration, which must not overflow into a negative,
// already-expired deadline.
func TestRequestTimeoutParam(t *testing.T) {
	s := &Shell{Timeout: 100 * time.Millisecond}
	cases := []struct {
		query string
		want  time.Duration
	}{
		{"", 100 * time.Millisecond},
		{"timeout_ms=5", 5 * time.Millisecond},
		{"timeout_ms=0.5", 500 * time.Microsecond},
		{"timeout_ms=500", 100 * time.Millisecond}, // capped at cfg.Timeout
		{"timeout_ms=0", 100 * time.Millisecond},
		{"timeout_ms=-3", 100 * time.Millisecond},
		{"timeout_ms=junk", 100 * time.Millisecond},
		{"timeout_ms=1e13", 100 * time.Millisecond}, // past the Duration range
		{"timeout_ms=Inf", 100 * time.Millisecond},
		{"timeout_ms=NaN", 100 * time.Millisecond},
	}
	for _, tc := range cases {
		r := httptest.NewRequest(http.MethodGet, "/v1/similar/1?"+tc.query, nil)
		if got := s.requestTimeout(r); got != tc.want {
			t.Errorf("timeout for %q = %v, want %v", tc.query, got, tc.want)
		}
	}
}

// TestShellAccountingAndRefusalReason drives each outcome through one
// endpoint: a served reply ticks requests, a handler error and a
// passed-through 4xx tick errors, and every failure's access line carries
// its refusal reason while the response bytes stay {"error": ...}.
func TestShellAccountingAndRefusalReason(t *testing.T) {
	var logs bytes.Buffer
	s := testShell(&logs)
	ep := s.Endpoint("outcomes")
	h := s.Wrap(ep, func(ctx context.Context, w http.ResponseWriter, r *http.Request) (Reply, error) {
		switch r.URL.Query().Get("mode") {
		case "ok":
			return Reply{Body: []byte("{}\n")}, nil
		case "busy":
			return Reply{}, Errorf(http.StatusServiceUnavailable, "apitest: saturated, retry later")
		case "body":
			_, err := io.ReadAll(r.Body)
			return Reply{}, BodyError("apitest", "outcomes", err)
		case "deadline":
			<-ctx.Done()
			return Reply{}, ctx.Err()
		default: // a shard's 4xx relayed verbatim
			return Reply{Status: http.StatusNotFound, Body: []byte("{\"error\":\"apitest: no such company\"}\n")}, nil
		}
	})
	cases := []struct {
		query, body string
		status      int
		reason      string
	}{
		{"mode=ok", "", http.StatusOK, ""},
		{"mode=busy", "", http.StatusServiceUnavailable, "saturated, retry later"},
		{"mode=body", strings.Repeat("x", 64), http.StatusRequestEntityTooLarge, "exceeds the 16-byte limit"},
		{"mode=deadline&timeout_ms=1", "", http.StatusGatewayTimeout, "deadline exceeded"},
		{"mode=relay", "", http.StatusNotFound, "no such company"},
	}
	for _, tc := range cases {
		logs.Reset()
		req0, err0 := ep.Requests.Value(), ep.Errors.Value()
		rec := httptest.NewRecorder()
		h(rec, httptest.NewRequest(http.MethodPost, "/x?"+tc.query, strings.NewReader(tc.body)))
		if rec.Code != tc.status {
			t.Fatalf("%s: status %d, want %d (%s)", tc.query, rec.Code, tc.status, rec.Body)
		}
		served, failed := ep.Requests.Value()-req0, ep.Errors.Value()-err0
		if tc.status < 400 && (served != 1 || failed != 0) || tc.status >= 400 && (served != 0 || failed != 1) {
			t.Errorf("%s: requests +%d errors +%d, want exactly one tick", tc.query, served, failed)
		}
		line := logs.String()
		if tc.reason == "" {
			if line != "" {
				t.Errorf("%s: quiet success logged %q", tc.query, line)
			}
			continue
		}
		if !strings.Contains(line, "status="+fmt.Sprint(tc.status)) || !strings.Contains(line, "err=") ||
			!strings.Contains(line, tc.reason) {
			t.Errorf("%s: access line %q lacks the refusal reason %q", tc.query, line, tc.reason)
		}
		if !strings.Contains(rec.Body.String(), `"error":`) {
			t.Errorf("%s: body %q is not an error object", tc.query, rec.Body)
		}
	}
}

func TestStatusFor(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{BadRequest("bad"), http.StatusBadRequest},
		{fmt.Errorf("wrapped: %w", Errorf(http.StatusConflict, "refused")), http.StatusConflict},
		{context.DeadlineExceeded, http.StatusGatewayTimeout},
		{fmt.Errorf("scan: %w", context.Canceled), http.StatusGatewayTimeout},
		{errors.New("core: k must be positive"), http.StatusBadRequest},
		{BodyError("p", "e", &http.MaxBytesError{Limit: 9}), http.StatusRequestEntityTooLarge},
		{BodyError("p", "e", io.ErrUnexpectedEOF), http.StatusBadRequest},
	}
	for _, tc := range cases {
		if got := StatusFor(tc.err); got != tc.want {
			t.Errorf("StatusFor(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}

func TestBindSLOFlags(t *testing.T) {
	fs := flagSet()
	f := BindSLOFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if cfg, err := f.Config(); cfg != nil || err != nil {
		t.Fatalf("-slo off: %+v %v, want nil", cfg, err)
	}
	fs = flagSet()
	f = BindSLOFlags(fs)
	if err := fs.Parse([]string{"-slo", "-slo-window", "30s", "-slo-latency", "similar=50ms"}); err != nil {
		t.Fatal(err)
	}
	cfg, err := f.Config()
	if err != nil || cfg.Window != 30*time.Second || cfg.Availability != DefaultSLOAvailability ||
		cfg.Latency["similar"] != 50*time.Millisecond {
		t.Fatalf("-slo on: %+v %v", cfg, err)
	}
	fs = flagSet()
	f = BindSLOFlags(fs)
	_ = fs.Parse([]string{"-slo", "-slo-latency", "similar"})
	if _, err := f.Config(); err == nil {
		t.Fatal("bad -slo-latency accepted")
	}
}

func flagSet() *flag.FlagSet {
	fs := flag.NewFlagSet("apitest", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs
}
