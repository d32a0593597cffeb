package main

import (
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct {
		q    float64
		want float64
	}{
		{0.05, 15}, {0.30, 20}, {0.40, 20}, {0.50, 35}, {0.99, 50}, {1, 50},
	} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
	shuffled := []float64{50, 15, 40, 20, 35}
	if got := median(shuffled); got != 35 {
		t.Errorf("median of unsorted input = %v, want 35", got)
	}
	if !reflect.DeepEqual(shuffled, []float64{50, 15, 40, 20, 35}) {
		t.Error("quantile reordered its input")
	}
	// p99 of 100 samples 1..100 is the 99th value; of 1000, the 990th.
	var hundred, thousand []float64
	for i := 1; i <= 1000; i++ {
		if i <= 100 {
			hundred = append(hundred, float64(i))
		}
		thousand = append(thousand, float64(i))
	}
	if got := quantile(hundred, 0.99); got != 99 {
		t.Errorf("p99 of 1..100 = %v, want 99", got)
	}
	if got := quantile(thousand, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
}

func TestSLOOKRatioCountsFailuresAsMisses(t *testing.T) {
	ms := time.Millisecond
	outs := []outcome{
		{latency: 1 * ms, ok: true},
		{latency: 25 * ms, ok: true}, // at the limit: met
		{latency: 26 * ms, ok: true}, // over the limit
		{latency: 1 * ms, ok: false}, // fast failure: still a miss
	}
	if got := sloOKRatio(outs, 25*ms); got != 0.5 {
		t.Errorf("sloOKRatio = %v, want 0.5", got)
	}
	if got := sloOKRatio(nil, 25*ms); got != 0 {
		t.Errorf("sloOKRatio(nil) = %v, want 0", got)
	}
	if got := okLatenciesMs(outs); !reflect.DeepEqual(got, []float64{1, 25, 26}) {
		t.Errorf("okLatenciesMs = %v, want the three 2xx latencies", got)
	}
}

func TestRecallAt(t *testing.T) {
	for _, c := range []struct {
		got, want []int
		r         float64
	}{
		{[]int{1, 2, 3}, []int{1, 2, 3}, 1},
		{[]int{3, 2, 1}, []int{1, 2, 3}, 1}, // order does not matter
		{[]int{1, 9, 8, 7}, []int{1, 2, 3, 4}, 0.25},
		{nil, []int{1, 2}, 0},
		{[]int{5}, nil, 1}, // nothing to find
	} {
		if r := recallAt(c.got, c.want); r != c.r {
			t.Errorf("recallAt(%v, %v) = %v, want %v", c.got, c.want, r, c.r)
		}
	}
}

func TestUnion(t *testing.T) {
	for _, c := range []struct {
		iv   [][2]int64
		want int64
	}{
		{nil, 0},
		{[][2]int64{{0, 10}}, 10},
		{[][2]int64{{0, 10}, {20, 25}}, 15},        // disjoint
		{[][2]int64{{0, 10}, {5, 15}}, 15},         // overlapping
		{[][2]int64{{5, 15}, {0, 10}, {2, 3}}, 15}, // unsorted, nested
		{[][2]int64{{0, 10}, {10, 20}}, 20},        // touching
	} {
		if got := union(c.iv); got != c.want {
			t.Errorf("union(%v) = %d, want %d", c.iv, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	// Handler 0..100 with two sequential children 10..30 and 40..70; the
	// second has a grandchild 45..55.
	seq := []span{
		{name: "serve.handler", start: 0, end: 100, parent: -1},
		{name: "core.topk", start: 10, end: 30, parent: 0},
		{name: "core.recommend", start: 40, end: 70, parent: 0},
		{name: "ann.candidates", start: 45, end: 55, parent: 2},
	}
	if got, want := selfTimes(seq), []int64{50, 20, 20, 10}; !reflect.DeepEqual(got, want) {
		t.Errorf("sequential self times = %v, want %v", got, want)
	}
	var sum int64
	for _, s := range selfTimes(seq) {
		sum += s
	}
	if sum != seq[0].dur() {
		t.Errorf("self times sum to %d, want the handler's %d", sum, seq[0].dur())
	}

	// A router at 0..100 whose two shard calls overlap (10..60, 20..80):
	// its self time excludes their union once, not twice.
	fan := []span{
		{name: "router.handler", start: 0, end: 100, parent: -1},
		{name: "serve.handler", start: 10, end: 60, parent: 0},
		{name: "serve.handler", start: 20, end: 80, parent: 0},
	}
	if got := selfTimes(fan)[0]; got != 30 {
		t.Errorf("router self = %d, want 30", got)
	}

	// Layer calls re-executed after the handler returned (120..200) still
	// subtract their whole length: the handler's self time goes negative
	// when they took longer than it did.
	replayed := []span{
		{name: "serve.handler", start: 0, end: 50, parent: -1},
		{name: "core.topk", start: 120, end: 200, parent: 0},
	}
	if got := selfTimes(replayed)[0]; got != -30 {
		t.Errorf("self with a slower replay = %d, want -30", got)
	}
}

func TestSelfSumRatio(t *testing.T) {
	s := newSpanStats()
	s.addTree([]span{
		{name: "serve.handler", start: 0, end: 100, parent: -1},
		{name: "core.topk", start: 100, end: 180, parent: 0},
	})
	if got := s.selfSumRatio(); got != 1 {
		t.Errorf("ratio with children inside the handler time = %v, want 1", got)
	}
	// A second request whose re-executed calls took 160 against a 100
	// handler: over the run, children cover 240 of 200.
	s.addTree([]span{
		{name: "serve.handler", start: 0, end: 100, parent: -1},
		{name: "core.topk", start: 100, end: 260, parent: 0},
	})
	if got := s.selfSumRatio(); got != 1.2 {
		t.Errorf("ratio with children claiming more than the handlers = %v, want 1.2", got)
	}
	if got := mean(s.self["serve.handler"]); math.Abs(got+0.02) > 1e-12 {
		t.Errorf("mean serve self = %v µs, want -0.02", got)
	}
}

func TestNilTraceOnlyRunsCalls(t *testing.T) {
	var tr *reqTrace
	ran := false
	tr.timed("core.topk", func() { ran = true })
	if !ran {
		t.Fatal("timed on a nil trace did not run the call")
	}
	tr.finish(tr.begin("serve.handler", -1))
}

func TestParsePromAndLayerCounters(t *testing.T) {
	text := func(hits, misses, admitted, filtered, topk, annQ, annRows, samples, dropped float64) counters {
		body := strings.Join([]string{
			"# HELP serve_cache_hits_total hits",
			"# TYPE serve_cache_hits_total counter",
			"serve_cache_hits_total " + f(hits),
			"serve_cache_misses_total " + f(misses),
			"topk_candidates_admitted_total " + f(admitted),
			"topk_candidates_filtered_total " + f(filtered),
			"topk_requests_total " + f(topk),
			"ann_topk_queries_total " + f(annQ),
			"ann_topk_candidates_scanned_total " + f(annRows),
			"shadow_samples_total " + f(samples),
			"shadow_dropped_total " + f(dropped),
			`topk_latency_seconds_bucket{le="0.001"} 7 # {trace_id="ab"} 0.0004`,
			"router_similar_requests_total 0",
		}, "\n")
		c, err := parseProm(strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	before := text(10, 10, 0, 0, 0, 0, 0, 0, 0)
	after := text(40, 80, 750, 250, 10, 10, 500, 3, 1)
	if got := after[`topk_latency_seconds_bucket{le="0.001"}`]; got != 7 {
		t.Errorf("bucket with exemplar parsed as %v, want 7", got)
	}
	vals, bases := layerCounters(before, after, 1000)
	want := map[string]float64{
		"serve.cache_hit_ratio":    0.3, // 30 of 100 lookups
		"core.rows_per_query":      100, // 1000 rows over 10 scans
		"core.filter_reject_ratio": 0.25,
		"ann.candidate_fraction":   0.05, // 500 of 10·1000
		"shadow.samples":           3,
		"shadow.drop_ratio":        0.25,
		"router.partial_ratio":     0, // no routed requests: 0, not NaN
	}
	for k, v := range want {
		if math.Abs(vals[k]-v) > 1e-12 {
			t.Errorf("%s = %v, want %v", k, vals[k], v)
		}
	}
	if bases["serve.cache_hit_ratio"] != 100 || bases["core.rows_per_query"] != 10 {
		t.Errorf("bases = %v", bases)
	}
}

func f(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func TestGeneratorIsSeeded(t *testing.T) {
	m := corpusMeta{Companies: 1000, Categories: 40, Countries: []string{"DE", "US"}, SIC2: []int{10, 73}}
	a := newGenerator(m, 7).stream(500)
	b := newGenerator(m, 7).stream(500)
	c := newGenerator(m, 8).stream(500)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different streams")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds, same stream")
	}
	counts := map[string]int{}
	var filtered int
	for _, q := range a {
		counts[q.endpoint]++
		if q.filter.Country != "" || q.filter.SIC2 != 0 {
			filtered++
		}
		if q.id < 0 || q.id >= m.Companies {
			t.Fatalf("company %d outside the corpus", q.id)
		}
	}
	if counts["similar"] < 220 || counts["similar"] > 330 || counts["infer"] > 50 {
		t.Errorf("endpoint counts %v far from the 0.55/0.30/0.10/0.05 mix", counts)
	}
	if filtered < 90 || filtered > 160 {
		t.Errorf("%d of 500 filtered, want about 125", filtered)
	}
}

func TestPickIsZipfHeavy(t *testing.T) {
	g := newGenerator(corpusMeta{Companies: 10000, Categories: 1}, 1)
	top := 0
	for i := 0; i < 10000; i++ {
		if pick(g.r, g.cdf) == 0 {
			top++
		}
	}
	// zipf(1.1) over 10k ranks puts 1/Σr^-1.1 ≈ 15% of the mass on rank 0.
	if top < 1300 || top > 1700 {
		t.Errorf("rank 0 drawn %d of 10000 times, want about 1500", top)
	}
}

func TestQuietestKeepsTheLeastStolenHalf(t *testing.T) {
	ms := time.Millisecond
	at := func(sent time.Duration) outcome { return outcome{sent: sent, latency: ms, ok: true} }
	outs := []outcome{at(0), at(120 * ms), at(250 * ms), at(260 * ms), at(390 * ms), at(410 * ms)}
	// Slices of 100 ms: 0 and 4 were stolen from, so 1, 2 and 3 are kept.
	sel, d := quietest(outs, []float64{0.2, 0, 0.01, 0, 0.3}, 100*ms)
	if d != 300*ms {
		t.Errorf("kept %v, want 300ms", d)
	}
	if want := []outcome{at(120 * ms), at(250 * ms), at(260 * ms), at(390 * ms)}; !reflect.DeepEqual(sel, want) {
		t.Errorf("kept %v, want %v", sel, want)
	}
	// A quiet host keeps the even slices: the kept time spreads over the
	// window. Requests sent after the last read slice are dropped.
	sel, d = quietest(outs, []float64{0, 0, 0, 0}, 100*ms)
	if want := []outcome{at(0), at(250 * ms), at(260 * ms)}; d != 200*ms || !reflect.DeepEqual(sel, want) {
		t.Errorf("quiet host kept %v over %v, want %v over 200ms", sel, d, want)
	}
}
