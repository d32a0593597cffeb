package serve

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
)

// TestSLOStatusAndDebugEndpoint drives a mixed workload through an
// SLO-tracking server and pins the rolling evaluation: request and error
// counts over the window, the burn-rate and budget math, /debug/slo in both
// formats, and the /healthz summary.
func TestSLOStatusAndDebugEndpoint(t *testing.T) {
	s, _, _ := newTestServer(t, Config{
		// One slot, so filling s.sem below saturates the server on any
		// host (the default is par.Workers()).
		MaxConcurrent: 1,
		Quiet:         true,
		Logger:        discardLogger(),
		SLO: &api.SLOConfig{
			Window:       time.Hour, // no rotation mid-test
			Availability: 0.999,
			// Generous objectives so LatencyOK is deterministic for the
			// healthy endpoints.
			Latency: map[string]time.Duration{"default": 10 * time.Second},
		},
	})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 4; i++ {
		if resp := getJSON(t, ts, "/v1/similar/3?k=3", nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("similar status %d", resp.StatusCode)
		}
	}
	// A 400 counts as a request but neither an error nor a latency sample.
	if resp := getJSON(t, ts, "/v1/similar/notanid", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatal("bad request not rejected")
	}
	// A saturation 503 is a server error: it consumes error budget.
	s.sem <- struct{}{}
	func() {
		defer func() { <-s.sem }()
		r := httptest.NewRequest(http.MethodGet, "/v1/recommend/2?timeout_ms=5", nil)
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, r)
		if w.Code != http.StatusServiceUnavailable {
			t.Fatalf("saturated status %d, want 503", w.Code)
		}
	}()

	tsSLO := httptest.NewServer(s.SLORoutes()[0].Handler)
	defer tsSLO.Close()
	var st api.SLOStatus
	if resp := getJSON(t, tsSLO, "/debug/slo", &st); resp.StatusCode != http.StatusOK {
		t.Fatal("debug/slo not served")
	}
	if st.WindowSec != 3600 || st.Availability != 0.999 || st.Buckets != api.DefaultSLOBuckets {
		t.Fatalf("config echo %+v", st)
	}
	byName := map[string]api.SLOEndpointStatus{}
	for _, e := range st.Endpoints {
		byName[e.Endpoint] = e
	}
	sim := byName["similar"]
	if sim.Requests != 5 || sim.Errors != 0 {
		t.Fatalf("similar window counts %+v", sim)
	}
	if !sim.OK || !sim.AvailabilityOK || !sim.LatencyOK || sim.BurnRate != 0 || sim.BudgetRemaining != 1 {
		t.Fatalf("healthy endpoint evaluated unhealthy: %+v", sim)
	}
	if sim.P99MS <= 0 || sim.P50MS > sim.P999MS {
		t.Fatalf("windowed quantiles %+v", sim)
	}
	if sim.QPS <= 0 {
		t.Fatalf("QPS %v", sim.QPS)
	}
	rec := byName["recommend"]
	if rec.Requests != 1 || rec.Errors != 1 {
		t.Fatalf("recommend window counts %+v", rec)
	}
	// errRate 1.0 against a 0.001 budget: burn rate ~1000, budget gone.
	if rec.ErrorRate != 1 || rec.BurnRate < 999 || rec.BurnRate > 1001 || rec.BudgetRemaining != 0 {
		t.Fatalf("burn math %+v", rec)
	}
	if rec.AvailabilityOK || rec.OK {
		t.Fatalf("burning endpoint evaluated OK: %+v", rec)
	}
	if st.OK || len(st.Burning) == 0 || st.Burning[0] != "recommend" {
		t.Fatalf("overall status %+v burning %v", st.OK, st.Burning)
	}

	// Text rendering carries the same story.
	resp, err := tsSLO.Client().Get(tsSLO.URL + "/debug/slo?format=text")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(text), "BURNING: recommend") || !strings.Contains(string(text), "burning(avail)") {
		t.Fatalf("text rendering:\n%s", text)
	}

	// /healthz folds in the one-line summary.
	var health healthResponse
	getJSON(t, ts, "/healthz", &health)
	if health.SLO == nil || health.SLO.OK || len(health.SLO.Burning) != 1 {
		t.Fatalf("healthz slo summary %+v", health.SLO)
	}

	// SLORoutes exposes exactly the /debug/slo mount.
	if routes := s.SLORoutes(); len(routes) != 1 || routes[0].Pattern != "GET /debug/slo" {
		t.Fatalf("SLORoutes %+v", routes)
	}
}

// TestSLOMetricAndResponseInvariance is the disabled-path pin for the SLO
// layer, mirroring the tracing invariance suite: an identical request mix
// against an SLO-off and an SLO-on server must produce byte-identical query
// responses and move every pre-existing serving metric by exactly the same
// delta. SLO tracking may add new series; it must never perturb old ones.
func TestSLOMetricAndResponseInvariance(t *testing.T) {
	type reqSpec struct {
		method, path, body string
		status             int
	}
	specs := []reqSpec{
		{http.MethodGet, "/v1/similar/3?k=5", "", http.StatusOK},
		{http.MethodGet, "/v1/similar/3?k=5", "", http.StatusOK}, // cache hit
		{http.MethodGet, "/v1/recommend/7?peers=5", "", http.StatusOK},
		{http.MethodPost, "/v1/whitespace", `{"clients":[1,2,3],"k":4}`, http.StatusOK},
		{http.MethodPost, "/v1/infer", `{"owned":[0,1],"k":3}`, http.StatusOK},
		{http.MethodGet, "/v1/similar/notanid", "", http.StatusBadRequest},
	}
	run := func(slo *api.SLOConfig) ([]string, map[string]uint64, *Server) {
		t.Helper()
		s, _, _ := newTestServer(t, Config{Quiet: true, Logger: discardLogger(), SLO: slo})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		before := snapshotMetrics()
		bodies := make([]string, 0, len(specs))
		for _, spec := range specs {
			req, err := http.NewRequest(spec.method, ts.URL+spec.path, strings.NewReader(spec.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := ts.Client().Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != spec.status {
				t.Fatalf("%s %s: status %d, want %d", spec.method, spec.path, resp.StatusCode, spec.status)
			}
			bodies = append(bodies, string(body))
		}
		after := snapshotMetrics()
		deltas := make(map[string]uint64, len(after))
		for name, v := range after {
			deltas[name] = v - before[name]
		}
		return bodies, deltas, s
	}

	offBodies, offDeltas, offSrv := run(nil)
	onBodies, onDeltas, onSrv := run(&api.SLOConfig{Window: time.Hour})
	defer onSrv.Close()

	for i := range specs {
		if offBodies[i] != onBodies[i] {
			t.Errorf("%s %s: response differs with SLO tracking on\noff: %s\non:  %s",
				specs[i].method, specs[i].path, offBodies[i], onBodies[i])
		}
	}
	for name, want := range offDeltas {
		if got := onDeltas[name]; got != want {
			t.Errorf("metric %s: delta %d with SLO on, %d off", name, got, want)
		}
	}
	if offDeltas["serve_similar_requests_total"] == 0 || offDeltas["serve_similar_errors_total"] == 0 {
		t.Fatalf("request mix did not move both similar counters: %+v", offDeltas)
	}

	// The disabled path exposes no SLO surface at all: no routes, no
	// tracker state, no slo key in /healthz.
	if routes := offSrv.SLORoutes(); routes != nil {
		t.Fatalf("SLO-off server mounted routes: %+v", routes)
	}
	offSrv.Close() // no-op, must not panic
	tsOff := httptest.NewServer(offSrv.Handler())
	defer tsOff.Close()
	resp, err := tsOff.Client().Get(tsOff.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if strings.Contains(string(raw), `"slo"`) {
		t.Fatalf("SLO-off healthz mentions slo:\n%s", raw)
	}
}

// TestCacheEvictionCounter pins the new eviction series with delta
// assertions: filling a 2-entry cache with 3 distinct queries evicts exactly
// one, and re-querying the evicted key misses again.
func TestCacheEvictionCounter(t *testing.T) {
	s, _, _ := newTestServer(t, Config{CacheSize: 2, Quiet: true, Logger: discardLogger()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	evict0, misses0 := counterValue("serve_cache_evictions_total"), counterValue("serve_cache_misses_total")
	getJSON(t, ts, "/v1/similar/1?k=3", nil)
	getJSON(t, ts, "/v1/similar/2?k=3", nil)
	if got := counterValue("serve_cache_evictions_total"); got != evict0 {
		t.Fatalf("eviction before capacity (%d -> %d)", evict0, got)
	}
	getJSON(t, ts, "/v1/similar/3?k=3", nil) // evicts the id=1 entry
	if got := counterValue("serve_cache_evictions_total"); got != evict0+1 {
		t.Fatalf("serve_cache_evictions_total %d, want %d", got, evict0+1)
	}
	getJSON(t, ts, "/v1/similar/1?k=3", nil) // evicted: a miss (and evicts id=2)
	if got := counterValue("serve_cache_misses_total"); got != misses0+4 {
		t.Fatalf("serve_cache_misses_total %d, want %d", got, misses0+4)
	}
	if got := counterValue("serve_cache_evictions_total"); got != evict0+2 {
		t.Fatalf("serve_cache_evictions_total %d, want %d", got, evict0+2)
	}
}

// TestDisabledCacheCountsMisses pins that a caching-disabled server still
// counts every cacheable lookup as a miss (the hit ratio denominator stays
// meaningful) and never a hit.
func TestDisabledCacheCountsMisses(t *testing.T) {
	s, _, _ := newTestServer(t, Config{CacheSize: -1, Quiet: true, Logger: discardLogger()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	hits0, misses0 := counterValue("serve_cache_hits_total"), counterValue("serve_cache_misses_total")
	getJSON(t, ts, "/v1/similar/5?k=3", nil)
	getJSON(t, ts, "/v1/similar/5?k=3", nil)
	if got := counterValue("serve_cache_hits_total"); got != hits0 {
		t.Fatalf("disabled cache produced hits (%d -> %d)", hits0, got)
	}
	if got := counterValue("serve_cache_misses_total"); got != misses0+2 {
		t.Fatalf("serve_cache_misses_total %d, want %d", got, misses0+2)
	}
}
