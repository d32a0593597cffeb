package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// fuzzEndpoints is the outside-facing query surface FuzzServeQuery drives:
// the request path (with {id} substituted for the GET endpoints), method
// and the metric name the shell counts the request under.
var fuzzEndpoints = []struct {
	method, path, metric string
}{
	{http.MethodGet, "/v1/similar/", "similar"},
	{http.MethodGet, "/v1/recommend/", "recommend"},
	{http.MethodPost, "/v1/whitespace", "whitespace"},
	{http.MethodPost, "/v1/infer", "infer"},
	{http.MethodPost, "/internal/recommend", "recommend"},
}

// addQuerySeeds seeds the corpus with committed cases plus every query the
// README shows: its curl examples and its endpoint table.
func addQuerySeeds(f *testing.F) {
	f.Add(uint8(0), "3", "k=5&country=US&sic2=71", []byte(nil))
	f.Add(uint8(0), "3", "k=-1", []byte(nil))
	f.Add(uint8(0), "notanid", "", []byte(nil))
	f.Add(uint8(0), "99999", "min_revenue_m=1e308&max_employees=-4", []byte(nil))
	f.Add(uint8(1), "7", "peers=5&min_employees=x", []byte(nil))
	f.Add(uint8(1), "7", "peers=99999999&max_revenue_m=NaN", []byte(nil))
	f.Add(uint8(2), "", "", []byte(`{"clients":[1,2,3],"k":4,"filter":{"country":"DE"}}`))
	f.Add(uint8(2), "", "", []byte(`{"clients":[-1]}`))
	f.Add(uint8(2), "", "", []byte(`{"clients":[1],"k":1e400}`))
	f.Add(uint8(3), "", "", []byte(`{"owned":[0,1],"k":3}`))
	f.Add(uint8(3), "", "", []byte(`{"owned":[]}`))
	f.Add(uint8(3), "", "", []byte(`{"owned":[0,99999]}`))
	f.Add(uint8(4), "", "", []byte(`{"company_id":5,"peers":2,"matches":[{"company_id":1,"similarity":0.5},{"company_id":2,"similarity":0.25}]}`))
	f.Add(uint8(4), "", "", []byte(`{"company_id":5,"matches":[{"company_id":40,"similarity":1}]}`))
	// Overflowing similarities once scored NaN strengths and failed 500.
	f.Add(uint8(4), "", "", []byte(`{"company_id":5,"matches":[{"company_id":1,"similarity":1e308},{"company_id":1,"similarity":1e308}]}`))
	f.Add(uint8(4), "", "", []byte(`{not json`))

	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		return
	}
	curl := regexp.MustCompile(`curl [^\n]*?localhost:\d+(/(?:v1|internal)/[^\s'"|]*)(?: -d '([^']*)')?`)
	table := regexp.MustCompile("`(GET|POST) (/(?:v1|internal)/[^`]*)`(?: `([^`]*)`)?")
	add := func(path, body string) {
		for i, ep := range fuzzEndpoints {
			rest, ok := strings.CutPrefix(path, ep.path)
			if !ok {
				continue
			}
			id, query, _ := strings.Cut(rest, "?")
			id = strings.ReplaceAll(id, "{id}", "42")
			f.Add(uint8(i), id, query, []byte(body))
			return
		}
	}
	for _, m := range curl.FindAllStringSubmatch(string(readme), -1) {
		add(m[1], m[2])
	}
	for _, m := range table.FindAllStringSubmatch(string(readme), -1) {
		add(m[2], strings.ReplaceAll(m[3], "…", ""))
	}
}

// FuzzServeQuery drives arbitrary path ids, query strings and bodies through
// the query endpoints of a model-backed server. Whatever the input, the
// server must not panic, must answer 2xx or 4xx — a 5xx would mean outside
// bytes can fail the service — and must tick exactly one of the endpoint's
// serve_<endpoint>_requests_total / _errors_total. timeout_ms is stripped:
// a tiny client deadline legitimately yields 503/504.
func FuzzServeQuery(f *testing.F) {
	addQuerySeeds(f)
	s, _, _ := newTestServer(f, Config{MaxConcurrent: 64, Quiet: true, Logger: discardLogger()})
	defer s.Close()
	h := s.Handler()

	f.Fuzz(func(t *testing.T, endpoint uint8, id, query string, body []byte) {
		ep := fuzzEndpoints[int(endpoint)%len(fuzzEndpoints)]
		u := &url.URL{Path: ep.path, RawQuery: query}
		if ep.method == http.MethodGet {
			// A path id the mux cannot route to the endpoint (empty, a
			// separator, a dot segment) never reaches the query surface.
			if id == "" || id == "." || id == ".." || strings.Contains(id, "/") {
				t.Skip()
			}
			u.Path += id
		}
		if q := u.Query(); q.Has("timeout_ms") {
			q.Del("timeout_ms")
			u.RawQuery = q.Encode()
		}
		req, err := http.NewRequest(ep.method, "http://serve.test"+u.RequestURI(), bytes.NewReader(body))
		if err != nil || req.URL.Path != u.Path {
			t.Skip() // not a well-formed request line
		}
		served0 := counterValue("serve_" + ep.metric + "_requests_total")
		failed0 := counterValue("serve_" + ep.metric + "_errors_total")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code < 200 || rec.Code >= 500 || (rec.Code >= 300 && rec.Code < 400) {
			t.Fatalf("%s %s body %q: status %d %s", ep.method, u.RequestURI(), body, rec.Code, rec.Body)
		}
		served := counterValue("serve_"+ep.metric+"_requests_total") - served0
		failed := counterValue("serve_"+ep.metric+"_errors_total") - failed0
		want := [2]uint64{1, 0}
		if rec.Code >= 400 {
			want = [2]uint64{0, 1}
		}
		if [2]uint64{served, failed} != want {
			t.Fatalf("%s %s: status %d ticked requests +%d errors +%d", ep.method, u.RequestURI(), rec.Code, served, failed)
		}
	})
}
