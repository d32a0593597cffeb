package router

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/obs"
)

// routerInvarianceMetrics are the router's per-endpoint series an SLO
// tracker must never perturb.
var routerInvarianceMetrics = []string{
	"router_similar_requests_total", "router_similar_errors_total",
	"router_recommend_requests_total", "router_recommend_errors_total",
	"router_whitespace_requests_total", "router_whitespace_errors_total",
	"router_infer_requests_total", "router_infer_errors_total",
	"router_partial_responses_total",
}

func snapshotRouterMetrics() map[string]uint64 {
	out := make(map[string]uint64, len(routerInvarianceMetrics))
	for _, name := range routerInvarianceMetrics {
		out[name] = counterValue(name)
	}
	return out
}

// TestRouterSLOMetricAndResponseInvariance is the router's disabled-path
// pin for SLO tracking, in the shape of the serve-side suite: with SLOs on,
// Routes() serves /debug/slo over the router's endpoints and /healthz
// carries the slo block; routed response bytes and every router_* counter
// delta are identical with SLO tracking on and off.
func TestRouterSLOMetricAndResponseInvariance(t *testing.T) {
	type reqSpec struct {
		method, path, body string
		status             int
	}
	specs := []reqSpec{
		{http.MethodGet, "/v1/similar/3?k=5", "", http.StatusOK},
		{http.MethodGet, "/v1/recommend/7?peers=5", "", http.StatusOK},
		{http.MethodPost, "/v1/whitespace", `{"clients":[1,2,3],"k":4}`, http.StatusOK},
		{http.MethodPost, "/v1/infer", `{"owned":[0,1],"k":3}`, http.StatusOK},
		{http.MethodGet, "/v1/similar/notanid", "", http.StatusBadRequest},
		{http.MethodGet, "/v1/similar/3?k=-1", "", http.StatusBadRequest}, // shard 4xx passed through
	}
	run := func(slo *api.SLOConfig) ([]string, map[string]uint64, *Router, *httptest.Server) {
		t.Helper()
		rt, ts := newCluster(t, 2, Config{SLO: slo}, nil)
		before := snapshotRouterMetrics()
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
				t.Fatalf("%s %s: status %d, want %d\n%s", spec.method, spec.path, resp.StatusCode, spec.status, body)
			}
			bodies = append(bodies, string(body))
		}
		after := snapshotRouterMetrics()
		deltas := make(map[string]uint64, len(after))
		for name, v := range after {
			deltas[name] = v - before[name]
		}
		return bodies, deltas, rt, ts
	}

	offBodies, offDeltas, offRt, offTS := run(nil)
	onBodies, onDeltas, onRt, onTS := run(&api.SLOConfig{Window: time.Hour})

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
	if offDeltas["router_similar_requests_total"] != 1 || offDeltas["router_similar_errors_total"] != 2 {
		t.Fatalf("request mix did not move both similar counters as sent: %+v", offDeltas)
	}

	// SLO on: Routes() mounts /debug/slo next to /debug/recall, and the
	// evaluation covers the router's four query endpoints with the window
	// counting exactly the requests sent.
	mux := http.NewServeMux()
	patterns := map[string]bool{}
	for _, r := range onRt.Routes() {
		patterns[r.Pattern] = true
		mux.Handle(r.Pattern, r.Handler)
	}
	if !patterns["GET /debug/slo"] || !patterns["GET /debug/recall"] {
		t.Fatalf("SLO-on router routes = %v, want /debug/slo and /debug/recall", patterns)
	}
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/slo", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/slo status %d", rec.Code)
	}
	var st struct {
		Endpoints []struct {
			Endpoint string `json:"endpoint"`
			Requests uint64 `json:"requests"`
			Errors   uint64 `json:"errors"`
		} `json:"endpoints"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("/debug/slo body: %v\n%s", err, rec.Body.Bytes())
	}
	wantReq := map[string]uint64{"similar": 3, "recommend": 1, "whitespace": 1, "infer": 1}
	if len(st.Endpoints) != len(wantReq) {
		t.Fatalf("/debug/slo endpoints = %+v, want %v", st.Endpoints, wantReq)
	}
	for _, e := range st.Endpoints {
		if want, ok := wantReq[e.Endpoint]; !ok || e.Requests != want || e.Errors != 0 {
			t.Errorf("/debug/slo endpoint %+v, want %d requests and no 5xx", e, want)
		}
	}
	if _, ok := obs.Default().Snapshot().Windows["router_similar_latency_window_seconds"]; !ok {
		t.Error("router_similar_latency_window_seconds not registered under the router_ prefix")
	}
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/slo?format=text", nil))
	if !strings.Contains(rec.Body.String(), "similar") {
		t.Errorf("/debug/slo?format=text lacks the similar row:\n%s", rec.Body.String())
	}

	// /healthz carries the slo block only with tracking on.
	_, onHealth := get(t, onTS.URL, "/healthz")
	var h struct {
		SLO *struct {
			OK bool `json:"ok"`
		} `json:"slo"`
	}
	if err := json.Unmarshal(onHealth, &h); err != nil {
		t.Fatal(err)
	}
	if h.SLO == nil {
		t.Fatalf("SLO-on router /healthz lacks the slo block:\n%s", onHealth)
	}
	_, offHealth := get(t, offTS.URL, "/healthz")
	if strings.Contains(string(offHealth), `"slo"`) {
		t.Fatalf("SLO-off router /healthz mentions slo:\n%s", offHealth)
	}
	for _, r := range offRt.Routes() {
		if r.Pattern == "GET /debug/slo" {
			t.Fatal("SLO-off router mounted /debug/slo")
		}
	}
}
