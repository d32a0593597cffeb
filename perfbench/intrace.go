package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/ann"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/lda"
	"repro/internal/mat"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/router"
	"repro/internal/serve"
	"repro/internal/shadow"
)

// scoreBlockQueries is how many similar queries the traced run also scores
// against every row with core.Scorer.ScoreBlock, for the kernel's ns/row.
const scoreBlockQueries = 32

// cacheHits is ibserve's response-cache hit counter (the registry returns
// the series serve registered); the traced run reads it around each request
// to tell a cache hit, which runs no layer below serve, from a miss.
var cacheHits = obs.Default().Counter("serve_cache_hits_total", "")

// layers is one in-process load of the prepared files: the same corpus,
// model, representations and ANN index an ibserve process would hold.
type layers struct {
	w      *workload
	prep   *prepared
	corpus *corpus.Corpus
	model  *lda.Model
	reps   *mat.Matrix
	annIx  *ann.Index
	close  func() error
	setup  map[string]float64 // seconds per set-up step

	// active is the trace the span wrappers record into; nil while the run
	// is not recording.
	active atomic.Pointer[reqTrace]
}

// load reads the prepared files the way ibserve's start-up does, timing
// each step.
func load(w *workload, p *prepared) (*layers, error) {
	ly := &layers{w: w, prep: p, setup: map[string]float64{}}
	timed := func(name string, fn func() error) error {
		t0 := time.Now()
		err := fn()
		ly.setup[name] = time.Since(t0).Seconds()
		return err
	}
	var closeModel, closeANN func() error
	if err := timed("corpus.load_s", func() (err error) {
		ly.corpus, err = corpus.LoadFile(p.corpusPath())
		return err
	}); err != nil {
		return nil, err
	}
	if err := timed("lda.open_s", func() (err error) {
		ly.model, closeModel, err = lda.LoadFile(p.modelPath())
		return err
	}); err != nil {
		return nil, err
	}
	_ = timed("lda.representations_s", func() error {
		ly.reps = ly.model.Representations(ly.corpus.Sets(), rng.New(serveSeed))
		return nil
	})
	ly.close = closeModel
	if w.ann {
		if err := timed("ann.open_s", func() (err error) {
			ly.annIx, closeANN, err = ann.LoadFile(p.annPath())
			return err
		}); err != nil {
			_ = closeModel()
			return nil, err
		}
		if ly.annIx.RepsCRC != ann.Fingerprint(ly.reps) {
			_ = closeANN()
			_ = closeModel()
			return nil, errors.New("prepared ANN index does not match the representations")
		}
		ly.close = func() error { return errors.Join(closeANN(), closeModel()) }
	}
	return ly, nil
}

// tracedPruner wraps the ANN router so calls made while a trace is active
// record an ann.candidates span under the trace's current span.
type tracedPruner struct {
	inner  core.Pruner
	active *atomic.Pointer[reqTrace]
}

func (p tracedPruner) Candidates(queries [][]float64) [][]int64 {
	t := p.active.Load()
	if t == nil {
		return p.inner.Candidates(queries)
	}
	var out [][]int64
	t.timed("ann.candidates", func() { out = p.inner.Candidates(queries) })
	return out
}

func (p tracedPruner) Info() core.PrunerInfo { return p.inner.Info() }

// index builds shard part's core.Index over the given load.
func (ly *layers) index(c *corpus.Corpus, reps *mat.Matrix, annIx *ann.Index, part int) (*core.Index, error) {
	ix, err := core.NewIndex(c, reps, core.Cosine)
	if err != nil {
		return nil, err
	}
	if ly.w.servers > 1 {
		if err := ix.SetPartition(part, ly.w.servers); err != nil {
			return nil, err
		}
	}
	if annIx != nil {
		ix.SetPruner(tracedPruner{inner: &ann.Router{Index: annIx, NProbe: annNProbe}, active: &ly.active})
	}
	return ix, nil
}

// stack is one serving topology in-process: fresh servers (empty caches)
// over the shared load, and the handler clients call.
type stack struct {
	handler http.Handler
	indexes []*core.Index
	close   func()
}

var quietLogger = slog.New(slog.NewTextHandler(io.Discard, nil))

func (ly *layers) serveConfig() serve.Config {
	cfg := serve.Config{Seed: serveSeed, Logger: quietLogger, Quiet: true}
	if ly.w.shadow > 0 {
		cfg.Shadow = &shadow.Config{SampleN: ly.w.shadow, Seed: serveSeed,
			Queue: shadow.DefaultQueue, Recent: shadow.DefaultRecent}
	}
	return cfg
}

// reloader re-reads the prepared files like ibserve's /admin/reload.
func (ly *layers) reloader(part int) serve.Loader {
	return func(context.Context) (serve.Loaded, error) {
		fresh, err := load(ly.w, ly.prep)
		if err != nil {
			return serve.Loaded{}, err
		}
		ix, err := ly.index(fresh.corpus, fresh.reps, fresh.annIx, part)
		if err != nil {
			_ = fresh.close()
			return serve.Loaded{}, err
		}
		return serve.Loaded{Index: ix, Model: fresh.model, Close: fresh.close}, nil
	}
}

// newStack builds fresh servers; shards sit behind httptest listeners and
// an in-process router, each shard handler recording a serve.handler span
// into the active trace.
func (ly *layers) newStack() (*stack, error) {
	st := &stack{}
	var closers []func()
	st.close = func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	var urls []string
	for part := 0; part < ly.w.servers; part++ {
		ix, err := ly.index(ly.corpus, ly.reps, ly.annIx, part)
		if err != nil {
			st.close()
			return nil, err
		}
		srv, err := serve.New(serve.Loaded{Index: ix, Model: ly.model, Close: func() error { return nil }},
			ly.reloader(part), ly.serveConfig())
		if err != nil {
			st.close()
			return nil, err
		}
		closers = append(closers, srv.Close)
		st.indexes = append(st.indexes, ix)
		if !ly.w.routed {
			st.handler = srv.Handler()
			continue
		}
		ts := httptest.NewServer(ly.shardSpans(srv.Handler()))
		closers = append(closers, ts.Close)
		urls = append(urls, ts.URL)
	}
	if ly.w.routed {
		rt, err := router.New(router.Config{Shards: urls, Logger: quietLogger, Quiet: true})
		if err != nil {
			st.close()
			return nil, err
		}
		closers = append(closers, rt.Close)
		st.handler = rt.Handler()
	}
	return st, nil
}

// shardSpans records each shard query as a serve.handler span under the
// active trace's root.
func (ly *layers) shardSpans(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t := ly.active.Load()
		if t == nil || !(strings.HasPrefix(r.URL.Path, "/v1/") || strings.HasPrefix(r.URL.Path, "/internal/")) {
			h.ServeHTTP(w, r)
			return
		}
		i := t.begin("serve.handler", 0)
		h.ServeHTTP(w, r)
		t.finish(i)
	})
}

// serveInProcess runs one request through h and returns the status.
func serveInProcess(h http.Handler, method, path string, body []byte) (int, []byte) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

func handlerSender(h http.Handler) sender {
	return func(q *request) bool {
		code, _ := serveInProcess(h, q.method, q.path, q.body)
		return code/100 == 2
	}
}

func handlerFetcher(h http.Handler) fetcher {
	return func(path string) (int, []byte, error) {
		code, body := serveInProcess(h, "GET", path, nil)
		return code, body, nil
	}
}

// replayLayers re-executes request q layer by layer through the public
// functions the serve handler calls, each under a span.
func (ly *layers) replayLayers(t *reqTrace, ix *core.Index, q *request) {
	ctx := context.Background()
	switch q.endpoint {
	case "similar":
		t.timed("core.topk", func() { _, _ = ix.TopKContext(ctx, q.id, q.k, q.filter) })
	case "recommend":
		t.timed("core.recommend", func() { _, _ = ix.RecommendFromSimilarContext(ctx, q.id, q.peers, q.filter) })
	case "whitespace":
		t.timed("core.whitespace", func() { _, _ = ix.WhitespaceContext(ctx, q.clients, q.k, q.filter) })
	case "infer":
		var theta []float64
		t.timed("lda.infer", func() { theta = ly.model.InferTheta(q.owned, rng.New(serveSeed)) })
		t.timed("core.topk", func() { _, _ = ix.TopKByVectorContext(ctx, theta, q.k, q.filter) })
	}
}

// spanStats accumulates span durations and self times by name, and the
// handler (root) time against the time the root's children cover.
type spanStats struct {
	dur, self            map[string][]float64 // microseconds
	rootTime, childCover int64
}

func newSpanStats() *spanStats {
	return &spanStats{dur: map[string][]float64{}, self: map[string][]float64{}}
}

func (s *spanStats) addTree(spans []span) {
	self := selfTimes(spans)
	for i, sp := range spans {
		s.dur[sp.name] = append(s.dur[sp.name], float64(sp.dur())/1e3)
		s.self[sp.name] = append(s.self[sp.name], float64(self[i])/1e3)
	}
	s.rootTime += spans[0].dur()
	s.childCover += childCover(spans)[0]
}

// selfSumRatio is the root's self time, summed over the run and floored at
// zero, plus the time its children cover, over the root time: the share of
// the handler time the self times of the spans sum to. It is 1 while the
// layer calls take no longer than the handlers that make them, and exceeds
// 1 by the excess when they claim more.
func (s *spanStats) selfSumRatio() float64 {
	return ratio(float64(max(s.rootTime, s.childCover)), float64(s.rootTime))
}

func (ly *layers) rootName() string {
	if ly.w.routed {
		return "router.handler"
	}
	return "serve.handler"
}

// sequential replays reqs one at a time, until deadline, through two fresh
// stacks: one with the span recorder on and one with it off, alternating
// which goes first so both see the same conditions. Each request goes
// through the handler and, when the handler missed the response cache, its
// layer calls are re-executed right after through the public functions the
// handler calls (a routed similar query re-executes its shard top-ks and
// the merge). On the recording side every call runs under a span recorded
// into stats, and the first similar queries also time the ScoreBlock
// kernel. It returns the handler times (µs) with the recorder on and off,
// the kernel's ns/row samples and the failed requests.
func (ly *layers) sequential(reqs []request, deadline time.Time, stats *spanStats) (on, off, nsPerRow []float64, failed int, err error) {
	traced, err := ly.newStack()
	if err != nil {
		return nil, nil, nil, 0, err
	}
	defer traced.close()
	untraced, err := ly.newStack()
	if err != nil {
		return nil, nil, nil, 0, err
	}
	defer untraced.close()
	for i := 0; i < len(reqs) && time.Now().Before(deadline); i++ {
		q := &reqs[i]
		t := newReqTrace()
		for pass := 0; pass < 2; pass++ {
			if (i+pass)%2 == 0 {
				us, ok := ly.replayOne(traced, q, t)
				on = append(on, us)
				if !ok {
					failed++
				}
			} else {
				us, ok := ly.replayOne(untraced, q, nil)
				off = append(off, us)
				if !ok {
					failed++
				}
			}
		}
		stats.addTree(t.spans)
		if q.endpoint == "similar" && len(nsPerRow) < scoreBlockQueries {
			nsPerRow = append(nsPerRow, scoreBlockNsPerRow(ly.reps, q.id))
		}
	}
	return on, off, nsPerRow, failed, nil
}

// replayOne sends q through st's handler and, on a cache miss, re-executes
// its layer calls, recording into t (nil records nothing). It returns the
// handler time in µs and whether the handler answered 2xx.
func (ly *layers) replayOne(st *stack, q *request, t *reqTrace) (float64, bool) {
	hits := cacheHits.Value()
	if ly.w.routed && t != nil {
		ly.active.Store(t)
	}
	h0 := clock()
	root := t.begin(ly.rootName(), -1)
	code, _ := serveInProcess(st.handler, q.method, q.path, q.body)
	t.finish(root)
	us := float64(clock()-h0) / 1e3
	ly.active.Store(nil)
	switch {
	case ly.w.routed:
		if q.endpoint == "similar" {
			ly.replayMerge(t, st.indexes, q)
		}
	case cacheHits.Value() == hits: // a miss: the layers below serve ran
		if t != nil {
			t.cur = root
			ly.active.Store(t)
		}
		ly.replayLayers(t, st.indexes[0], q)
		ly.active.Store(nil)
	}
	return us, code/100 == 2
}

// runTraced is the in-process run behind the per-layer metrics: (A) the
// stream replayed by w.conns goroutines for the window, untraced, with the
// registry's counters read before and after; (B) the stream replayed
// sequentially for another window, each request once with the span
// recorder on and once with it off (see sequential). The difference between
// the two sides' handler times is the tracing overhead.
func runTraced(env *runEnv, cfg runConfig) (*result, error) {
	w := cfg.w
	reqs := newGenerator(env.prep.meta, cfg.seed).stream(cfg.streamLen())
	if w.workers > 0 {
		par.SetWorkers(w.workers)
	}
	ly, err := load(w, env.prep)
	if err != nil {
		return nil, err
	}
	defer ly.close()
	logf("%s: loaded in-process %v", w.name, ly.setup)

	// (A) concurrent replay and counter deltas.
	a, err := ly.newStack()
	if err != nil {
		return nil, err
	}
	l := &loop{reqs: reqs, conns: w.conns}
	send := handlerSender(a.handler)
	l.run(context.Background(), send, warmup)
	reg := obs.Default()
	before, err := promText(reg.WritePrometheus)
	if err != nil {
		a.close()
		return nil, err
	}
	outs, _ := l.run(context.Background(), send, cfg.window)
	after, err := promText(reg.WritePrometheus)
	if err != nil {
		a.close()
		return nil, err
	}
	_, checkErr := checkProbes(handlerFetcher(a.handler), env.prep.probes, !w.ann)
	a.close()
	if checkErr != nil {
		logf("%s: output check failed: %v", w.name, checkErr)
	}
	counts, bases := layerCounters(before, after, w.companies)

	// (B) sequential replays with the span recorder on and off.
	stats := newSpanStats()
	traced, untraced, nsPerRow, failed, err := ly.sequential(reqs, time.Now().Add(cfg.window), stats)
	if err != nil {
		return nil, err
	}
	m := len(traced)

	us := func(name string) float64 { return mean(stats.dur[name]) }
	selfUs := func(name string) float64 { return mean(stats.self[name]) }
	overhead := ratio(mean(traced), mean(untraced)) - 1
	metrics := map[string]metric{
		"core.scoreblock_ns_per_row": {median(nsPerRow), "ns"},
		"core.topk_us":               {us("core.topk"), "us"},
		"core.recommend_us":          {us("core.recommend"), "us"},
		"core.whitespace_us":         {us("core.whitespace"), "us"},
		"core.merge_us":              {us("core.merge"), "us"},
		"ann.candidates_us":          {us("ann.candidates"), "us"},
		"lda.infer_us":               {us("lda.infer"), "us"},
		"serve.handler_us":           {us("serve.handler"), "us"},
		"serve.self_us":              {selfUs("serve.handler"), "us"},
		"router.handler_us":          {us("router.handler"), "us"},
		"router.self_us":             {selfUs("router.handler"), "us"},
		"trace.self_sum_ratio":       {stats.selfSumRatio(), "ratio"},
		"trace.overhead_ratio":       {overhead, "ratio"},
	}
	units := map[string]string{"core.rows_per_query": "count", "serve.throttled": "count", "shadow.samples": "count"}
	for k, v := range counts {
		u := units[k]
		if u == "" {
			u = "ratio"
		}
		metrics[k] = metric{v, u}
	}
	for _, k := range []string{"corpus.load_s", "lda.open_s", "lda.representations_s", "ann.open_s"} {
		metrics[k] = metric{ly.setup[k], "s"}
	}
	spanCounts := map[string]int{}
	for k, v := range stats.dur {
		spanCounts[k] = len(v)
	}
	note("traced", map[string]any{
		"concurrent_requests": len(outs), "sequential_requests": m, "spans": spanCounts,
		"counter_bases": bases, "self_sum_tolerance": selfSumTolerance,
		"scoreblock_queries": len(nsPerRow), "stream_wraps": l.wraps.Load(),
	})
	if r := metrics["trace.self_sum_ratio"].Value; r > 1+selfSumTolerance {
		logf("%s: self times sum to %.3f of the handler time, beyond the %.0f%% tolerance", w.name, r, 100*selfSumTolerance)
	}
	for _, o := range outs {
		if !o.ok {
			failed++
		}
	}
	return &result{
		Correct:   checkErr == nil,
		Attempted: len(outs) + 2*m,
		Failed:    failed,
		Metrics:   metrics,
	}, nil
}

// selfSumTolerance is how far the traced spans may claim more time than the
// handler span they decompose.
const selfSumTolerance = 0.05

// replayMerge re-executes a routed similar query's merge: each shard's
// top-k, then core.MergeTopK under a core.merge span below the router root.
func (ly *layers) replayMerge(t *reqTrace, indexes []*core.Index, q *request) {
	perShard := make([][]core.Match, len(indexes))
	for i, ix := range indexes {
		perShard[i], _ = ix.TopKContext(context.Background(), q.id, q.k, q.filter)
	}
	if t != nil {
		t.cur = 0
	}
	t.timed("core.merge", func() { core.MergeTopK(perShard, q.k, core.MatchBetter) })
}

// scoreBlockNsPerRow scores company id's vector against every row with the
// blocked kernel and returns nanoseconds per row.
func scoreBlockNsPerRow(reps *mat.Matrix, id int) float64 {
	dst := make([]float64, reps.Rows)
	sc := core.NewScorer(core.Cosine, reps.Row(id))
	t0 := clock()
	sc.ScoreBlock(reps, 0, reps.Rows, dst)
	return float64(clock()-t0) / float64(reps.Rows)
}
