// Package router is the scatter-gather front end over a set of ibserve
// shards. Each shard runs `ibserve -shard i/n` and owns one hash partition
// of the candidate scans (the representations are replicated, so any shard
// can also score recommendation peers); the router fans every query out to
// all shards, carves each shard's deadline out of the request budget (with a
// reserve kept back for the merge), hedges stragglers after a quantile
// delay, merges the partial top-k lists under the exact core total order —
// so a fully healthy fan-out is byte-identical to an unsharded server — and
// degrades to a "partial": true response naming the missing shards when some
// of them are down instead of failing the whole query.
//
// Per-shard circuit breakers (consecutive-failure trip, half-open probe,
// exponential cooldown) stop a dead shard from costing one timeout per
// request, and a background /readyz probe loop treats a draining shard
// exactly like one with a tripped breaker. Router metrics (fan-out latency,
// hedges fired and won, breaker state, partial responses) report into the
// shared obs registry next to the serve metrics, under the router_ prefix.
package router

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/trace"
)

var partialTotal = obs.Default().Counter("router_partial_responses_total",
	"queries answered with partial results because at least one shard was missing")

// routerHelp words the per-endpoint router_* series.
var routerHelp = api.Help{
	Requests: "%s queries answered by the router (including partial answers)",
	Errors:   "%s queries the router failed (bad arguments, every shard missing, or deadline)",
	Latency:  "end-to-end latency of answered %s queries",
}

// Config parameterizes a Router. Zero values select the documented defaults.
type Config struct {
	// Shards are the base URLs of the ibserve shards, in partition order:
	// Shards[i] must run with -shard i/len(Shards).
	Shards []string
	// Timeout is the whole-request budget; a timeout_ms query parameter can
	// shrink it per request but never extend it. Default 5s.
	Timeout time.Duration
	// MergeReserve is the fraction of the remaining budget kept back from
	// the shard deadline for merging and marshalling. Default 0.1.
	MergeReserve float64
	// HedgeQuantile places the hedge delay at this quantile of the shard's
	// recent answered latencies; a request still unanswered after the delay
	// gets a second identical attempt, first answer wins. Default 0.9;
	// negative disables hedging.
	HedgeQuantile float64
	// HedgeMin floors the hedge delay, so an idle window (or a very fast
	// shard) cannot make the router hedge every request. Default 20ms.
	HedgeMin time.Duration
	// BreakerThreshold is the consecutive shard failures that trip its
	// breaker open. Default 5.
	BreakerThreshold int
	// BreakerCooldown is the first open interval; each failed half-open
	// probe doubles it up to BreakerMaxCooldown. Defaults 500ms / 10s.
	BreakerCooldown    time.Duration
	BreakerMaxCooldown time.Duration
	// ProbeInterval is the cadence of the background /readyz shard probe;
	// a not-ready shard is skipped like one with an open breaker. Default
	// 1s; negative disables probing.
	ProbeInterval time.Duration
	// DefaultK mirrors the shards' default result count; DefaultPeers the
	// recommendation peer count. They must match the shard configuration for
	// sharded answers to be byte-identical. Defaults 10 / 25.
	DefaultK     int
	DefaultPeers int
	// Logger receives access and degradation lines. Default slog.Default().
	Logger *slog.Logger
	// Tracer records request-scoped spans; the router joins an incoming W3C
	// traceparent and propagates one to every shard call.
	Tracer *trace.Tracer
	// SLO, when non-nil, tracks rolling router SLOs under the router_ metric
	// prefix, with /debug/slo served from Routes().
	SLO *api.SLOConfig
	// MaxBodyBytes caps request bodies on the POST endpoints; an oversized
	// body gets 413. Default 1 MiB (matching ibserve); negative disables the
	// cap.
	MaxBodyBytes int64
	// Quiet suppresses access-log lines for successful requests.
	Quiet bool
}

func (c Config) withDefaults() Config {
	if c.Timeout == 0 {
		c.Timeout = 5 * time.Second
	}
	if c.MergeReserve == 0 {
		c.MergeReserve = 0.1
	}
	if c.HedgeQuantile == 0 {
		c.HedgeQuantile = 0.9
	}
	if c.HedgeMin == 0 {
		c.HedgeMin = 20 * time.Millisecond
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown == 0 {
		c.BreakerCooldown = 500 * time.Millisecond
	}
	if c.BreakerMaxCooldown == 0 {
		c.BreakerMaxCooldown = 10 * time.Second
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = time.Second
	}
	if c.DefaultK == 0 {
		c.DefaultK = 10
	}
	if c.DefaultPeers == 0 {
		c.DefaultPeers = 25
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	if c.Tracer == nil {
		c.Tracer = trace.Default()
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.MaxBodyBytes < 0 {
		c.MaxBodyBytes = 0
	}
	return c
}

// Router fans queries out to the shards and merges their answers.
type Router struct {
	api.Readiness // GET /readyz, mirroring the shard-side drain protocol

	cfg     Config
	shards  []*shard
	client  *http.Client
	mux     *http.ServeMux
	shell   *api.Shell // shell.SLO is nil when Config.SLO is nil
	started time.Time

	probeCancel context.CancelFunc
	probeDone   chan struct{}
}

// New builds a Router over the configured shard URLs.
func New(cfg Config) (*Router, error) {
	if len(cfg.Shards) == 0 {
		return nil, errors.New("router: no shards configured")
	}
	cfg = cfg.withDefaults()
	rt := &Router{
		cfg:     cfg,
		client:  &http.Client{},
		started: time.Now(),
		shell: &api.Shell{
			Prefix:       "router",
			Help:         routerHelp,
			Timeout:      cfg.Timeout,
			MaxBodyBytes: cfg.MaxBodyBytes,
			Logger:       cfg.Logger,
			Tracer:       cfg.Tracer,
			Quiet:        cfg.Quiet,
		},
	}
	for i, base := range cfg.Shards {
		base = strings.TrimRight(base, "/")
		if !strings.Contains(base, "://") {
			base = "http://" + base
		}
		if _, err := url.Parse(base); err != nil {
			return nil, fmt.Errorf("router: bad shard URL %q: %w", cfg.Shards[i], err)
		}
		sh := newShard(i, base)
		sh.br = newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown, cfg.BreakerMaxCooldown,
			obs.Default().Gauge(fmt.Sprintf("router_shard%d_breaker_state", i),
				fmt.Sprintf("breaker state of shard %d (0 closed, 1 half-open, 2 open)", i)))
		rt.shards = append(rt.shards, sh)
	}
	if cfg.SLO != nil {
		rt.shell.SLO = api.NewSLOTracker(*cfg.SLO, "router", []string{"similar", "recommend", "whitespace", "infer"})
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", rt.handleHealth)
	mux.Handle("GET /readyz", &rt.Readiness)
	mux.HandleFunc("GET /v1/similar/{id}", rt.query("similar", rt.handleSimilar))
	mux.HandleFunc("GET /v1/recommend/{id}", rt.query("recommend", rt.handleRecommend))
	mux.HandleFunc("POST /v1/whitespace", rt.query("whitespace", rt.handleWhitespace))
	mux.HandleFunc("POST /v1/infer", rt.query("infer", rt.handleInfer))
	rt.mux = mux
	if cfg.ProbeInterval > 0 {
		ctx, cancel := context.WithCancel(context.Background())
		rt.probeCancel = cancel
		rt.probeDone = make(chan struct{})
		go rt.probeLoop(ctx)
	}
	return rt, nil
}

// Handler returns the router's HTTP handler.
func (rt *Router) Handler() http.Handler { return rt.mux }

// Routes returns the router's debug routes for the -debug-addr mux:
// /debug/slo when SLO tracking is on, and the always-mounted fleet recall
// view GET /debug/recall, which scatters to every shard's /debug/recall and
// aggregates a sample-weighted fleet observed recall (shards without shadow
// sampling report "sampling": false rather than erroring the view).
func (rt *Router) Routes() []obs.Route {
	return append(rt.shell.SLO.Routes(),
		obs.Route{Pattern: "GET /debug/recall", Handler: http.HandlerFunc(rt.handleFleetRecall)})
}

// Close stops the probe loop and the SLO ticker.
func (rt *Router) Close() {
	if rt.probeCancel != nil {
		rt.probeCancel()
		<-rt.probeDone
	}
	rt.shell.SLO.Close()
}

// probeLoop polls every shard's /readyz so draining or dead shards are
// skipped before their breaker has to learn the hard way.
func (rt *Router) probeLoop(ctx context.Context) {
	defer close(rt.probeDone)
	t := time.NewTicker(rt.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			var wg sync.WaitGroup
			for _, sh := range rt.shards {
				wg.Add(1)
				go func(sh *shard) {
					defer wg.Done()
					pctx, cancel := context.WithTimeout(ctx, rt.cfg.ProbeInterval)
					defer cancel()
					status, _, err := doRequest(pctx, rt.client, http.MethodGet, sh.base+"/readyz", nil, nil)
					sh.ready.Store(err == nil && status == http.StatusOK)
				}(sh)
			}
			wg.Wait()
		}
	}
}

type shardHealthJSON struct {
	Index   int    `json:"index"`
	Addr    string `json:"addr"`
	Ready   bool   `json:"ready"`
	Breaker string `json:"breaker"`
}

type healthResponse struct {
	Status    string            `json:"status"`
	Shards    []shardHealthJSON `json:"shards"`
	UptimeSec float64           `json:"uptime_seconds"`
	Tracing   bool              `json:"tracing"`
	SLO       *api.SLOHealth    `json:"slo,omitempty"`
}

var breakerNames = [...]string{"closed", "half-open", "open"}

func (rt *Router) handleHealth(w http.ResponseWriter, _ *http.Request) {
	resp := healthResponse{
		Status:    "ok",
		UptimeSec: time.Since(rt.started).Seconds(),
		Tracing:   rt.cfg.Tracer.Enabled(),
		SLO:       rt.shell.SLO.Health(),
	}
	for _, sh := range rt.shards {
		resp.Shards = append(resp.Shards, shardHealthJSON{
			Index:   sh.index,
			Addr:    sh.base,
			Ready:   sh.ready.Load(),
			Breaker: breakerNames[sh.br.State()],
		})
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}

// routerResponse is a fan-out handler's outcome: the rendered reply and
// the shards it was merged without (non-empty marks a partial answer).
type routerResponse struct {
	api.Reply
	missing []int
}

type fanoutHandler func(ctx context.Context, r *http.Request) (routerResponse, error)

// query runs a fan-out handler inside the shared request shell, adding the
// router's partial marking: an answer merged without every shard carries an
// X-Partial header, ticks router_partial_responses_total and tags the root
// span with the missing shards.
func (rt *Router) query(name string, h fanoutHandler) http.HandlerFunc {
	return rt.shell.Wrap(rt.shell.Endpoint(name), func(ctx context.Context, w http.ResponseWriter, r *http.Request) (api.Reply, error) {
		resp, err := h(ctx, r)
		if err == nil && len(resp.missing) > 0 {
			partialTotal.Inc()
			w.Header().Set("X-Partial", "true")
			trace.FromContext(ctx).Attr("partial", fmt.Sprintf("%v", resp.missing))
		}
		return resp.Reply, err
	})
}

// shardContext carves the shard deadline out of the request budget, keeping
// MergeReserve of the remaining time back for merging and marshalling.
func (rt *Router) shardContext(ctx context.Context) (context.Context, context.CancelFunc) {
	dl, ok := ctx.Deadline()
	if !ok {
		return context.WithCancel(ctx)
	}
	reserve := time.Duration(float64(time.Until(dl)) * rt.cfg.MergeReserve)
	return context.WithDeadline(ctx, dl.Add(-reserve))
}

// hedgeDelay places the hedge for one shard call: the configured quantile of
// the shard's recent answered latencies, floored at HedgeMin and capped at
// half the remaining budget (a hedge fired later than that cannot finish).
func (rt *Router) hedgeDelay(ctx context.Context, sh *shard) time.Duration {
	if rt.cfg.HedgeQuantile < 0 {
		return 0
	}
	d := sh.lat.Quantile(rt.cfg.HedgeQuantile)
	if d < rt.cfg.HedgeMin {
		d = rt.cfg.HedgeMin
	}
	if dl, ok := ctx.Deadline(); ok {
		if half := time.Until(dl) / 2; d > half {
			d = half
		}
	}
	return d
}

// traceHeader builds the headers propagated to every shard call: the W3C
// traceparent of the active span, so shard-side span trees join the router's
// distributed trace.
func traceHeader(sp *trace.Span, contentType string) http.Header {
	h := http.Header{}
	if contentType != "" {
		h.Set("Content-Type", contentType)
	}
	if sp.Active() {
		h.Set("traceparent", trace.FormatTraceparent(sp.TraceID(), sp.SpanID()))
	}
	return h
}

// fanout sends one identical request to every admissible shard and gathers
// the results in shard order. Skipped shards (open breaker, not ready) are
// marked without a network call; answered shards feed their breaker.
func (rt *Router) fanout(ctx context.Context, method, pathAndQuery string, body []byte, header http.Header) []shardResult {
	sctx, cancel := rt.shardContext(ctx)
	defer cancel()
	results := make([]shardResult, len(rt.shards))
	var wg sync.WaitGroup
	now := time.Now()
	for i, sh := range rt.shards {
		if !sh.ready.Load() {
			results[i] = shardResult{shard: i, skipped: true}
			continue
		}
		ok, probe := sh.br.Allow(now)
		if !ok {
			results[i] = shardResult{shard: i, skipped: true}
			continue
		}
		wg.Add(1)
		go func(i int, sh *shard, probe bool) {
			defer wg.Done()
			res := sh.call(sctx, rt.client, method, sh.base+pathAndQuery, body, header, rt.hedgeDelay(sctx, sh))
			if res.err != nil || res.status >= 500 {
				sh.mFailures.Inc()
				sh.br.Failure(time.Now(), probe)
			} else {
				sh.br.Success(probe)
			}
			results[i] = res
		}(i, sh, probe)
	}
	wg.Wait()
	return results
}

// classify splits fan-out results: shards that answered 2xx, the first
// client-error (4xx) verdict if any, and the sorted missing-shard list.
func classify(results []shardResult) (oks []shardResult, clientErr *shardResult, missing []int) {
	for i := range results {
		r := &results[i]
		switch {
		case r.failed():
			missing = append(missing, r.shard)
		case r.status >= 400:
			if clientErr == nil {
				clientErr = r
			}
		default:
			oks = append(oks, *r)
		}
	}
	sort.Ints(missing)
	return oks, clientErr, missing
}

// scatter runs the shared fan-out prologue for the single-phase endpoints:
// replay the request (and its body, on POST) on every shard, pass a client
// error through verbatim, fail 502 when no shard answered, otherwise hand
// the 2xx bodies and the missing-shard list to merge and render its value.
func (rt *Router) scatter(ctx context.Context, r *http.Request, endpoint string,
	merge func(oks []shardResult, missing []int) (any, error)) (routerResponse, error) {
	var body []byte
	contentType := ""
	if r.Method == http.MethodPost {
		var err error
		if body, err = io.ReadAll(r.Body); err != nil {
			return routerResponse{}, api.BodyError("router", endpoint, err)
		}
		contentType = "application/json"
	}
	results := rt.fanout(ctx, r.Method, r.URL.RequestURI(), body, traceHeader(trace.FromContext(ctx), contentType))
	oks, clientErr, missing := classify(results)
	if clientErr != nil {
		return routerResponse{Reply: api.Reply{Status: clientErr.status, Body: clientErr.body}}, nil
	}
	if len(oks) == 0 {
		return routerResponse{}, api.Errorf(http.StatusBadGateway,
			"router: all %d shards unavailable (missing %v)", len(rt.shards), missing)
	}
	if len(missing) > 0 {
		rt.cfg.Logger.Warn("partial fan-out", "path", r.URL.Path, "missing", missing)
	}
	value, err := merge(oks, missing)
	if err != nil {
		return routerResponse{}, err
	}
	out, err := api.Encode(value)
	if err != nil {
		return routerResponse{}, err
	}
	return routerResponse{Reply: api.Reply{Body: out}, missing: missing}, nil
}

func matchBetterJSON(a, b api.Match) bool {
	return core.MatchBetter(
		core.Match{CompanyID: a.CompanyID, Similarity: a.Similarity},
		core.Match{CompanyID: b.CompanyID, Similarity: b.Similarity})
}

func prospectBetterJSON(a, b api.Prospect) bool {
	return core.ProspectBetter(
		core.WhitespaceProspect{CompanyID: a.CompanyID, NearestClient: a.NearestClient, Similarity: a.Similarity},
		core.WhitespaceProspect{CompanyID: b.CompanyID, NearestClient: b.NearestClient, Similarity: b.Similarity})
}

func decodeShard[T any](r shardResult) (T, error) {
	var v T
	if err := json.Unmarshal(r.body, &v); err != nil {
		return v, api.Errorf(http.StatusBadGateway, "router: shard %d sent an unparseable body: %w", r.shard, err)
	}
	return v, nil
}

func degraded(missing []int) api.Degraded {
	return api.Degraded{Partial: len(missing) > 0, MissingShards: missing}
}

// mergeTopK decodes every answering shard's T and merges their ranked lists
// under the core total order, cut to the largest k any shard echoed. The
// first shard's answer is the template for the remaining fields (company
// name, theta), which every shard computes identically; fields points into
// a T at its k, its ranked list and its degradation marker.
func mergeTopK[T, E any](oks []shardResult, missing []int, better func(a, b E) bool,
	fields func(*T) (*int, *[]E, *api.Degraded)) (T, error) {
	var merged T
	k, list, deg := fields(&merged)
	perShard := make([][]E, len(oks))
	for i, res := range oks {
		v, err := decodeShard[T](res)
		if err != nil {
			return merged, err
		}
		vk, vlist, _ := fields(&v)
		if i == 0 {
			merged = v
		}
		*k = max(*k, *vk)
		perShard[i] = *vlist
	}
	if *list = core.MergeTopK(perShard, *k, better); *list == nil {
		*list = []E{}
	}
	*deg = degraded(missing)
	return merged, nil
}

func (rt *Router) handleSimilar(ctx context.Context, r *http.Request) (routerResponse, error) {
	return rt.scatter(ctx, r, "similar", func(oks []shardResult, missing []int) (any, error) {
		return mergeTopK(oks, missing, matchBetterJSON, func(v *api.SimilarResponse) (*int, *[]api.Match, *api.Degraded) {
			return &v.K, &v.Matches, &v.Degraded
		})
	})
}

func (rt *Router) handleWhitespace(ctx context.Context, r *http.Request) (routerResponse, error) {
	return rt.scatter(ctx, r, "whitespace", func(oks []shardResult, missing []int) (any, error) {
		return mergeTopK(oks, missing, prospectBetterJSON, func(v *api.WhitespaceResponse) (*int, *[]api.Prospect, *api.Degraded) {
			return &v.K, &v.Prospects, &v.Degraded
		})
	})
}

func (rt *Router) handleInfer(ctx context.Context, r *http.Request) (routerResponse, error) {
	return rt.scatter(ctx, r, "infer", func(oks []shardResult, missing []int) (any, error) {
		return mergeTopK(oks, missing, matchBetterJSON, func(v *api.InferResponse) (*int, *[]api.Match, *api.Degraded) {
			return &v.K, &v.Matches, &v.Degraded
		})
	})
}

// handleRecommend is the two-phase sharded recommendation: recommendation
// strengths normalize over the global peer set, so per-shard recommend
// answers cannot be merged. Phase 1 scatters /v1/similar with k=peers and
// merges the global peer list; phase 2 posts it to one healthy shard's
// /internal/recommend (every shard holds the full representations) which
// scores exactly the peers an unsharded server would have used.
func (rt *Router) handleRecommend(ctx context.Context, r *http.Request) (routerResponse, error) {
	sp := trace.FromContext(ctx)
	id := r.PathValue("id")
	if _, err := strconv.Atoi(id); err != nil {
		return routerResponse{}, api.BadRequest("router: company id %q is not an integer", id)
	}
	q := r.URL.Query()
	peers := rt.cfg.DefaultPeers
	if v := q.Get("peers"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return routerResponse{}, api.BadRequest("router: parameter peers=%q is not an integer", v)
		}
		if n != 0 { // an explicit 0 means "default", as on the shards
			peers = n
		}
	}
	// Phase 1: global top-peers peer set under the request's filters.
	phase1 := q
	phase1.Del("peers")
	phase1.Del("timeout_ms")
	phase1.Set("k", strconv.Itoa(peers))
	path := "/v1/similar/" + id + "?" + phase1.Encode()
	results := rt.fanout(ctx, http.MethodGet, path, nil, traceHeader(sp, ""))
	oks, clientErr, missing := classify(results)
	if clientErr != nil {
		return routerResponse{Reply: api.Reply{Status: clientErr.status, Body: clientErr.body}}, nil
	}
	if len(oks) == 0 {
		return routerResponse{}, api.Errorf(http.StatusBadGateway,
			"router: all %d shards unavailable (missing %v)", len(rt.shards), missing)
	}
	perShard := make([][]api.Match, len(oks))
	var base api.SimilarResponse
	for i, res := range oks {
		v, err := decodeShard[api.SimilarResponse](res)
		if err != nil {
			return routerResponse{}, err
		}
		if i == 0 {
			base = v
		}
		perShard[i] = v.Matches
	}
	mergedPeers := core.MergeTopK(perShard, peers, matchBetterJSON)

	// Phase 2: one healthy shard scores the merged peers.
	req := api.InternalRecommendRequest{CompanyID: base.CompanyID, Peers: peers,
		Matches: make([]api.InternalMatch, len(mergedPeers))}
	for i, m := range mergedPeers {
		req.Matches[i] = api.InternalMatch{CompanyID: m.CompanyID, Similarity: m.Similarity}
	}
	raw, err := json.Marshal(req)
	if err != nil {
		return routerResponse{}, api.Errorf(http.StatusInternalServerError, "%w", err)
	}
	sctx, cancel := rt.shardContext(ctx)
	defer cancel()
	header := traceHeader(sp, "application/json")
	var scored shardResult
	scoredOK := false
	for _, res := range oks {
		sh := rt.shards[res.shard]
		ok, probe := sh.br.Allow(time.Now())
		if !ok {
			continue
		}
		scored = sh.call(sctx, rt.client, http.MethodPost, sh.base+"/internal/recommend", raw, header,
			rt.hedgeDelay(sctx, sh))
		if scored.err != nil || scored.status >= 500 {
			sh.mFailures.Inc()
			sh.br.Failure(time.Now(), probe)
			continue
		}
		sh.br.Success(probe)
		scoredOK = true
		break
	}
	if !scoredOK {
		return routerResponse{}, api.Errorf(http.StatusBadGateway, "router: no shard could score the merged peer set")
	}
	if scored.status >= 400 {
		return routerResponse{Reply: api.Reply{Status: scored.status, Body: scored.body}}, nil
	}
	merged, err := decodeShard[api.RecommendResponse](scored)
	if err != nil {
		return routerResponse{}, err
	}
	if merged.Recommendations == nil {
		merged.Recommendations = []api.Recommendation{}
	}
	merged.Degraded = degraded(missing)
	if merged.Partial {
		rt.cfg.Logger.Warn("partial fan-out", "path", r.URL.Path, "missing", missing)
	}
	out, err := api.Encode(merged)
	if err != nil {
		return routerResponse{}, err
	}
	return routerResponse{Reply: api.Reply{Body: out}, missing: missing}, nil
}
