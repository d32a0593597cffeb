package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/obs"
	"repro/internal/shadow"
)

func gaugeValue(name string) float64 { return obs.Default().Gauge(name, "").Value() }

// getBodyClose drains and closes an already-issued response (the chaos test
// needs the status code AND the body from one round trip).
func getBodyClose(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// waitCounter polls until the named counter reaches want or the deadline
// passes (the shadow worker is asynchronous by design, so tests wait for the
// queue to drain instead of sleeping blind).
func waitCounter(t *testing.T, name string, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if counterValue(name) >= want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("%s = %d, want >= %d within 5s", name, counterValue(name), want)
}

// newShadowServer builds an ANN-routed server (cells/nprobe approximate, so
// divergence is possible) with the given shadow/reload configuration.
func newShadowServer(t *testing.T, cfg Config) (*Server, *core.Index) {
	t.Helper()
	s, ix, _ := newTestServer(t, cfg)
	ix.SetPruner(annRouter(t, ix, 5, 2))
	return s, ix
}

// TestShadowDisabledInvariance pins the disabled-path contract from both
// sides: with shadow sampling off, serving traffic registers no new metric
// names and /healthz carries no shadow block; and turning sampling ON
// changes no served byte — the same request sequence answers byte-identically
// on a sampling and a non-sampling server over the same index configuration.
func TestShadowDisabledInvariance(t *testing.T) {
	on, _ := newShadowServer(t, Config{Shadow: &shadow.Config{SampleN: 1, Seed: 5}})
	off, _ := newShadowServer(t, Config{})
	tsOn := httptest.NewServer(on.Handler())
	defer tsOn.Close()
	tsOff := httptest.NewServer(off.Handler())
	defer tsOff.Close()
	defer on.shadow.Close()

	names0 := strings.Join(obs.Default().Names(), "\n")
	paths := []string{"/v1/similar/0?k=5", "/v1/similar/7?k=3&country=US", "/v1/similar/7?k=3&country=US"}
	for _, p := range paths {
		respOff := getBody(t, tsOff, p)
		respOn := getBody(t, tsOn, p)
		if string(respOff) != string(respOn) {
			t.Fatalf("%s diverges with sampling on:\noff: %s\non:  %s", p, respOff, respOn)
		}
	}
	for i := 0; i < 2; i++ { // POST surface too, twice to cover the cache-hit path
		var respOff, respOn api.WhitespaceResponse
		postJSON(t, tsOff, "/v1/whitespace", api.WhitespaceRequest{Clients: []int{1, 2}, K: 5}, &respOff)
		postJSON(t, tsOn, "/v1/whitespace", api.WhitespaceRequest{Clients: []int{1, 2}, K: 5}, &respOn)
		if fmt.Sprintf("%+v", respOff) != fmt.Sprintf("%+v", respOn) {
			t.Fatalf("whitespace diverges with sampling on:\noff: %+v\non:  %+v", respOff, respOn)
		}
	}
	if names1 := strings.Join(obs.Default().Names(), "\n"); names1 != names0 {
		t.Fatalf("serving traffic registered new metric names:\nbefore:\n%s\nafter:\n%s", names0, names1)
	}

	// The healthz shadow block exists exactly when sampling is on.
	var rawOff, rawOn map[string]any
	getJSON(t, tsOff, "/healthz", &rawOff)
	getJSON(t, tsOn, "/healthz", &rawOn)
	if _, ok := rawOff["shadow"]; ok {
		t.Fatalf("non-sampling /healthz carries a shadow block: %+v", rawOff["shadow"])
	}
	if _, ok := rawOn["shadow"]; !ok {
		t.Fatal("sampling /healthz omits the shadow block")
	}

	// /debug/recall mounts on the main mux only with sampling on.
	if resp := getJSON(t, tsOff, "/debug/recall", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("non-sampling /debug/recall = %d, want 404", resp.StatusCode)
	}
	if resp := getJSON(t, tsOn, "/debug/recall", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("sampling /debug/recall = %d, want 200", resp.StatusCode)
	}
}

// TestShadowSamplingPopulates drives distinct (cache-missing) queries through
// an ANN server sampling at 1-in-1 and asserts the full observability
// surface fills in: processed-sample counters, the ann_observed_recall
// gauge, the /debug/recall worst ring with replayable query descriptions,
// and the /healthz shadow summary. Cache hits must not consume samples.
func TestShadowSamplingPopulates(t *testing.T) {
	s, _ := newShadowServer(t, Config{Shadow: &shadow.Config{SampleN: 1, Seed: 7}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.shadow.Close()

	samples0 := counterValue("shadow_samples_total")
	for i := 0; i < 6; i++ {
		if resp := getJSON(t, ts, fmt.Sprintf("/v1/similar/%d?k=5", i*3), nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("similar %d: status %d", i, resp.StatusCode)
		}
	}
	getJSON(t, ts, "/v1/similar/0?k=5", nil) // cache hit: no decision, no sample
	postJSON(t, ts, "/v1/whitespace", api.WhitespaceRequest{Clients: []int{1, 2}, K: 5}, nil)
	waitCounter(t, "shadow_samples_total", samples0+7)
	if got := counterValue("shadow_samples_total"); got != samples0+7 {
		t.Fatalf("shadow_samples_total = %d, want exactly %d (cache hits must not sample)", got, samples0+7)
	}

	if recall := gaugeValue("ann_observed_recall"); recall <= 0 || recall > 1 {
		t.Fatalf("ann_observed_recall = %v, want in (0, 1]", recall)
	}
	mean, n := s.shadow.ObservedRecall()
	if n < 7 || mean <= 0 {
		t.Fatalf("ObservedRecall = (%v, %d), want >= 7 window samples", mean, n)
	}

	var st shadow.Status
	getJSON(t, ts, "/debug/recall", &st)
	if !st.Enabled || st.SampleOneIn != 1 || len(st.Worst) == 0 {
		t.Fatalf("/debug/recall = %+v, want enabled with worst entries", st)
	}
	kinds := map[string]bool{}
	for _, e := range st.Worst {
		kinds[e.Kind] = true
		if e.K != 5 {
			t.Fatalf("worst entry k = %d, want 5: %+v", e.K, e)
		}
	}
	if !kinds["similar"] || !kinds["whitespace"] {
		t.Fatalf("worst ring kinds = %v, want both similar and whitespace", kinds)
	}

	var h healthResponse
	getJSON(t, ts, "/healthz", &h)
	if h.Shadow == nil || h.Shadow.SampleOneIn != 1 || h.Shadow.WindowSamples < 7 {
		t.Fatalf("/healthz shadow = %+v, want sample_one_in=1 with window samples", h.Shadow)
	}
	if h.Shadow.ObservedRecall != mean {
		t.Fatalf("/healthz observed_recall = %v, want %v", h.Shadow.ObservedRecall, mean)
	}
}

// TestReloadCanaryAndGuard exercises the reload canary end to end: an
// identical incoming generation reports a clean diff (Jaccard 1, zero recall
// delta) and swaps; a scrambled generation under -reload-guard is refused
// with 409, counted, and leaves the serving generation in place; and the
// guard stands down once the incoming generation is healthy again.
func TestReloadCanaryAndGuard(t *testing.T) {
	s, ix, m := newTestServer(t, Config{})
	_ = s // fixture only; the guarded server below is the one that serves
	ix.SetPruner(annRouter(t, ix, 5, 2))
	c := ix.Corpus

	newGen := func(reps *mat.Matrix) *core.Index {
		g, err := core.NewIndex(c, reps, ix.Metric)
		if err != nil {
			t.Fatal(err)
		}
		g.SetPruner(annRouter(t, g, 5, 2))
		return g
	}
	good := newGen(ix.Reps)
	// The "bad" generation maps every company onto the reverse row order:
	// same ids, same shapes, completely different neighbourhoods — exactly
	// the silent-corruption case the canary exists to catch.
	rev := mat.New(ix.Reps.Rows, ix.Reps.Cols)
	for i := 0; i < ix.Reps.Rows; i++ {
		copy(rev.Row(i), ix.Reps.Row(ix.Reps.Rows-1-i))
	}
	bad := newGen(rev)

	incoming := good
	srv, err := New(Loaded{Index: ix, Model: m}, func(ctx context.Context) (Loaded, error) {
		return Loaded{Index: incoming, Model: m}, nil
	}, Config{Shadow: &shadow.Config{SampleN: 1, Seed: 11}, ReloadGuard: 0.999, Quiet: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.shadow.Close()

	// An empty replay buffer means nothing to diff: the reload proceeds with
	// no canary block at all.
	var resp reloadResponse
	if r := postJSON(t, ts, "/admin/reload", nil, &resp); r.StatusCode != http.StatusOK {
		t.Fatalf("reload with empty buffer = %d, want 200", r.StatusCode)
	}
	if resp.Canary != nil || resp.Generation != 2 {
		t.Fatalf("empty-buffer reload = %+v, want gen 2 without canary", resp)
	}

	samples0 := counterValue("shadow_samples_total")
	for i := 0; i < 5; i++ {
		getJSON(t, ts, fmt.Sprintf("/v1/similar/%d?k=5", i*7), nil)
	}
	waitCounter(t, "shadow_samples_total", samples0+5)

	// Identical incoming generation: clean diff, swap allowed.
	canaries0 := counterValue("shadow_reload_canaries_total")
	refusals0 := counterValue("shadow_reload_refusals_total")
	resp = reloadResponse{}
	if r := postJSON(t, ts, "/admin/reload", nil, &resp); r.StatusCode != http.StatusOK {
		t.Fatalf("clean reload = %d, want 200", r.StatusCode)
	}
	if resp.Canary == nil || !resp.Reloaded || resp.Generation != 3 {
		t.Fatalf("clean reload = %+v, want gen 3 with canary", resp)
	}
	if resp.Canary.Queries != 5 || resp.Canary.Errors != 0 ||
		resp.Canary.MeanJaccard != 1 || resp.Canary.MinJaccard != 1 || resp.Canary.RecallDelta != 0 {
		t.Fatalf("clean canary = %+v, want 5 queries at Jaccard 1 with zero recall delta", resp.Canary)
	}
	if got := counterValue("shadow_reload_canaries_total"); got != canaries0+1 {
		t.Fatalf("shadow_reload_canaries_total = %d, want %d", got, canaries0+1)
	}

	// Scrambled incoming generation: the guard refuses the swap with 409,
	// counts the refusal, and keeps serving the old generation.
	incoming = bad
	r := postJSON(t, ts, "/admin/reload", nil, nil)
	if r.StatusCode != http.StatusConflict {
		t.Fatalf("scrambled reload = %d, want 409", r.StatusCode)
	}
	if got := counterValue("shadow_reload_refusals_total"); got != refusals0+1 {
		t.Fatalf("shadow_reload_refusals_total = %d, want %d", got, refusals0+1)
	}
	if j := gaugeValue("shadow_reload_diff_jaccard"); j >= 0.999 {
		t.Fatalf("shadow_reload_diff_jaccard = %v, want < 0.999 for the scrambled generation", j)
	}
	// The refused generation never took traffic: queries still answer from
	// the healthy index, identically to before the refused reload.
	before := getBody(t, ts, "/v1/similar/0?k=5")
	incoming = good
	resp = reloadResponse{}
	if r := postJSON(t, ts, "/admin/reload", nil, &resp); r.StatusCode != http.StatusOK {
		t.Fatalf("recovered reload = %d, want 200", r.StatusCode)
	}
	if resp.Generation != 4 {
		t.Fatalf("recovered reload generation = %d, want 4 (the refusal must not burn a generation)", resp.Generation)
	}
	after := getBody(t, ts, "/v1/similar/0?k=5")
	if string(before) != string(after) {
		t.Fatalf("healthy reload changed answers:\nbefore: %s\nafter:  %s", before, after)
	}
}

// TestShadowChaosComposition is the drill-compatibility contract: with chaos
// fault injection in front of the handler AND the shadow exact path failing
// deterministically (ExactFault), served responses stay byte-identical to a
// non-sampling server behind the same chaos seed, serve_*_errors_total never
// moves (chaos 503s short-circuit before the handler; shadow failures are
// off-path by construction), and the injected shadow failures land in
// shadow_exact_errors_total instead.
func TestShadowChaosComposition(t *testing.T) {
	cc := chaos.Config{Seed: 9, ErrorRate: 0.4}
	on, _ := newShadowServer(t, Config{Shadow: &shadow.Config{
		SampleN: 1, Seed: 3,
		ExactFault: func() error { return errors.New("injected shadow drill fault") },
	}})
	off, _ := newShadowServer(t, Config{})
	tsOn := httptest.NewServer(chaos.Middleware(cc, on.Handler()))
	defer tsOn.Close()
	tsOff := httptest.NewServer(chaos.Middleware(cc, off.Handler()))
	defer tsOff.Close()
	defer on.shadow.Close()

	serveErrs0 := counterValue("serve_similar_errors_total")
	exactErrs0 := counterValue("shadow_exact_errors_total")
	samples0 := counterValue("shadow_samples_total")
	var served uint64
	for i := 0; i < 25; i++ {
		path := fmt.Sprintf("/v1/similar/%d?k=5", i)
		respOff, err := tsOff.Client().Get(tsOff.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		bodyOff := getBodyClose(t, respOff)
		respOn, err := tsOn.Client().Get(tsOn.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		bodyOn := getBodyClose(t, respOn)
		if respOff.StatusCode != respOn.StatusCode || string(bodyOff) != string(bodyOn) {
			t.Fatalf("%s diverges under chaos: off=(%d, %s) on=(%d, %s)",
				path, respOff.StatusCode, bodyOff, respOn.StatusCode, bodyOn)
		}
		if respOn.StatusCode == http.StatusOK {
			served++
		}
	}
	if served == 0 || served == 25 {
		t.Fatalf("chaos injected %d/25 failures, want a mix to make the composition meaningful", 25-served)
	}

	// Every served (cache-missing, distinct-id) query was sampled and its
	// exact leg failed through ExactFault: the drill faults land in
	// shadow_exact_errors_total, never in the serving error counters.
	waitCounter(t, "shadow_exact_errors_total", exactErrs0+served)
	if got := counterValue("shadow_exact_errors_total"); got != exactErrs0+served {
		t.Fatalf("shadow_exact_errors_total = %d, want exactly %d", got, exactErrs0+served)
	}
	if got := counterValue("shadow_samples_total"); got != samples0 {
		t.Fatalf("shadow_samples_total moved by %d, want 0 (every exact leg faulted)", got-samples0)
	}
	if got := counterValue("serve_similar_errors_total"); got != serveErrs0 {
		t.Fatalf("serve_similar_errors_total moved by %d under chaos+shadow, want 0", got-serveErrs0)
	}
}
