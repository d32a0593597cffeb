package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// counters maps a series name (with any labels) to its value.
type counters map[string]float64

// parseProm reads the Prometheus text exposition, skipping comments and
// exemplars.
func parseProm(r io.Reader) (counters, error) {
	out := counters{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		if i := strings.Index(line, " # "); i >= 0 {
			line = line[:i]
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[name] += v
	}
	return out, sc.Err()
}

// scrapeHTTP reads /metrics from every debug address and sums the series:
// the topology's processes together are one system.
func scrapeHTTP(debugAddrs []string) (counters, error) {
	total := counters{}
	client := &http.Client{Timeout: 10 * time.Second}
	for _, a := range debugAddrs {
		resp, err := client.Get("http://" + a + "/metrics")
		if err != nil {
			return nil, err
		}
		c, err := parseProm(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		for k, v := range c {
			total[k] += v
		}
	}
	return total, nil
}

// delta returns after − before for one series.
func delta(before, after counters, name string) float64 { return after[name] - before[name] }

// deltaPrefix sums after − before over every series whose name starts
// with prefix and ends with suffix.
func deltaPrefix(before, after counters, prefix, suffix string) float64 {
	var d float64
	for k, v := range after {
		if strings.HasPrefix(k, prefix) && strings.HasSuffix(k, suffix) {
			d += v - before[k]
		}
	}
	return d
}

// layerCounters turns the counter deltas of one measured window into the
// per-layer counts and ratios. Each ratio is returned with its base, the
// count it divides by, in bases.
func layerCounters(before, after counters, companies int) (vals, bases map[string]float64) {
	d := func(n string) float64 { return delta(before, after, n) }
	hits, misses := d("serve_cache_hits_total"), d("serve_cache_misses_total")
	admitted, filtered := d("topk_candidates_admitted_total"), d("topk_candidates_filtered_total")
	topk := d("topk_requests_total")
	annQ, annRows := d("ann_topk_queries_total"), d("ann_topk_candidates_scanned_total")
	samples, dropped := d("shadow_samples_total"), d("shadow_dropped_total")
	var routed float64
	for _, ep := range []string{"similar", "recommend", "whitespace", "infer"} {
		routed += d("router_"+ep+"_requests_total") + d("router_"+ep+"_errors_total")
	}
	hedges := deltaPrefix(before, after, "router_shard", "_hedges_total")
	vals = map[string]float64{
		"serve.cache_hit_ratio":     ratio(hits, hits+misses),
		"serve.throttled":           d("serve_throttled_total"),
		"core.rows_per_query":       ratio(admitted+filtered, topk),
		"core.filter_reject_ratio":  ratio(filtered, admitted+filtered),
		"ann.candidate_fraction":    ratio(annRows, annQ*float64(companies)),
		"shadow.samples":            samples,
		"shadow.drop_ratio":         ratio(dropped, samples+dropped),
		"router.hedges_per_request": ratio(hedges, routed),
		"router.partial_ratio":      ratio(d("router_partial_responses_total"), routed),
	}
	bases = map[string]float64{
		"serve.cache_hit_ratio":     hits + misses,
		"core.rows_per_query":       topk,
		"core.filter_reject_ratio":  admitted + filtered,
		"ann.candidate_fraction":    annQ * float64(companies),
		"shadow.drop_ratio":         samples + dropped,
		"router.hedges_per_request": routed,
		"router.partial_ratio":      routed,
	}
	return vals, bases
}

// promText renders a registry-like writer into counters (the in-process
// run reads its own registry through the same parser as a scrape).
func promText(write func(io.Writer) error) (counters, error) {
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		return nil, err
	}
	return parseProm(&buf)
}
