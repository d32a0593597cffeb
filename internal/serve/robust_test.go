package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/api"
)

// TestMaxBodyBytes413 pins the POST body cap: an oversized body fails with
// 413, names the limit, and ticks exactly the endpoint's error counter —
// never its served counter (the delta-test discipline for metric semantics).
func TestMaxBodyBytes413(t *testing.T) {
	s, _, _ := newTestServer(t, Config{MaxBodyBytes: 512})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	huge := []byte(`{"clients":[1,2],"pad":"` + strings.Repeat("x", 2048) + `"}`)
	for _, tc := range []struct{ path, endpoint string }{
		{"/v1/whitespace", "whitespace"},
		{"/v1/infer", "infer"},
	} {
		served0 := counterValue("serve_" + tc.endpoint + "_requests_total")
		errs0 := counterValue("serve_" + tc.endpoint + "_errors_total")
		resp, err := ts.Client().Post(ts.URL+tc.path, "application/json", bytes.NewReader(huge))
		if err != nil {
			t.Fatal(err)
		}
		var body map[string]string
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s oversized body: status %d, want 413", tc.path, resp.StatusCode)
		}
		if !strings.Contains(body["error"], "512-byte limit") {
			t.Fatalf("%s 413 body should name the limit, got %q", tc.path, body["error"])
		}
		if got := counterValue("serve_" + tc.endpoint + "_errors_total"); got != errs0+1 {
			t.Errorf("%s errors_total delta = %d, want 1", tc.endpoint, got-errs0)
		}
		if got := counterValue("serve_" + tc.endpoint + "_requests_total"); got != served0 {
			t.Errorf("%s requests_total moved on a rejected body", tc.endpoint)
		}
	}

	// A body under the cap still works.
	resp, err := ts.Client().Post(ts.URL+"/v1/whitespace", "application/json",
		strings.NewReader(`{"clients":[1,2],"k":3}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("in-limit body: status %d, want 200", resp.StatusCode)
	}
}

// TestReadyz pins the readiness endpoint: ready by default, 503 once
// draining, flippable back, and distinct from /healthz (which stays 200 —
// a draining process is alive).
func TestReadyz(t *testing.T) {
	s, _, _ := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.String()
	}

	if code, body := get("/readyz"); code != http.StatusOK || !strings.Contains(body, "ready") {
		t.Fatalf("fresh server /readyz = %d %q, want 200 ready", code, body)
	}
	s.SetReady(false)
	if s.Ready() {
		t.Fatal("Ready() true after SetReady(false)")
	}
	if code, body := get("/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Fatalf("draining /readyz = %d %q, want 503 draining", code, body)
	}
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("draining /healthz = %d, want 200 (liveness is not readiness)", code)
	}
	// Queries still answer while draining: the flag only steers routers.
	if code, _ := get("/v1/similar/3?k=2"); code != http.StatusOK {
		t.Fatalf("draining /v1/similar = %d, want 200", code)
	}
	s.SetReady(true)
	if code, _ := get("/readyz"); code != http.StatusOK {
		t.Fatalf("re-readied /readyz = %d, want 200", code)
	}
}

// TestInternalRecommendMatchesPublic proves the two-phase contract at the
// HTTP layer: POST /internal/recommend with the peers /v1/similar selects
// returns byte-identical recommendations to GET /v1/recommend/{id}.
func TestInternalRecommendMatchesPublic(t *testing.T) {
	s, _, _ := newTestServer(t, Config{CacheSize: -1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const id, peers = 6, 8
	want := getBody(t, ts, fmt.Sprintf("/v1/recommend/%d?peers=%d", id, peers))

	var sim api.SimilarResponse
	if err := json.Unmarshal(getBody(t, ts, fmt.Sprintf("/v1/similar/%d?k=%d", id, peers)), &sim); err != nil {
		t.Fatal(err)
	}
	matches := make([]api.InternalMatch, len(sim.Matches))
	for i, m := range sim.Matches {
		matches[i] = api.InternalMatch{CompanyID: m.CompanyID, Similarity: m.Similarity}
	}
	raw, err := json.Marshal(api.InternalRecommendRequest{CompanyID: id, Peers: peers, Matches: matches})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/internal/recommend", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got bytes.Buffer
	if _, err := got.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/internal/recommend status %d: %s", resp.StatusCode, got.String())
	}
	if !bytes.Equal(want, got.Bytes()) {
		t.Fatalf("/internal/recommend differs from /v1/recommend\nwant %s\ngot  %s", want, got.String())
	}

	// Bad peer ids are rejected, not served.
	raw, _ = json.Marshal(api.InternalRecommendRequest{CompanyID: id, Peers: 1,
		Matches: []api.InternalMatch{{CompanyID: 9999, Similarity: 1}}})
	resp, err = ts.Client().Post(ts.URL+"/internal/recommend", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-range peer: status %d, want 400", resp.StatusCode)
	}
}

func getBody(t *testing.T, ts *httptest.Server, path string) []byte {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, buf.String())
	}
	return buf.Bytes()
}
