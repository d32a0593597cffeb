package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"time"
)

// sloLimit is the latency objective behind slo_ok_ratio.
const sloLimit = 25 * time.Millisecond

// slice is the unit in which the window's host steal is read; qps, p50_ms
// and p99_ms come from the quieter half of the slices (see quietest).
const slice = 500 * time.Millisecond

// runEndToEnd boots the topology w.boots times (setup_s is the median boot),
// replays the stream over HTTP with tracing off, scrapes /metrics around the
// window, checks the probe answers and measures /admin/reload.
func runEndToEnd(env *runEnv, cfg runConfig) (*result, error) {
	w := cfg.w
	reqs := newGenerator(env.prep.meta, cfg.seed).stream(cfg.streamLen())

	var setups []float64
	var topo *topology
	for b := 0; b < w.boots; b++ {
		t, secs, err := boot(w, env)
		if err != nil {
			return nil, fmt.Errorf("boot %d: %w", b+1, err)
		}
		setups = append(setups, secs)
		if b < w.boots-1 {
			t.stop()
			continue
		}
		topo = t
	}
	defer topo.stop()
	logf("%s: booted in %v s", w.name, setups)

	send, closeIdle := httpSender(topo.url, w.conns)
	defer closeIdle()
	l := &loop{reqs: reqs, conns: w.conns}
	l.run(context.Background(), send, warmup)

	var debugAddrs []string
	for _, p := range topo.procs() {
		debugAddrs = append(debugAddrs, p.debug)
	}
	before, err := scrapeHTTP(debugAddrs)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	steals := make(chan []float64, 1)
	go func() { steals <- stealBySlice(ctx, slice) }()
	outs, elapsed := l.run(ctx, send, cfg.window)
	cancel()
	sliceSteal := <-steals
	after, err := scrapeHTTP(debugAddrs)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	rss, err := topo.rssMB()
	if err != nil {
		return nil, err
	}

	recall, checkErr := checkProbes(httpFetcher(topo.url), env.prep.probes, !w.ann)
	if checkErr != nil {
		logf("%s: output check failed: %v", w.name, checkErr)
	}
	// Every workload times /admin/reload after the window, on each server
	// in turn.
	var reloadSecs []float64
	var reloadFails int
	for i := 0; i < w.reloads; i++ {
		addr := topo.servers[i%len(topo.servers)].addr
		t0 := time.Now()
		if err := postReload(addr); err != nil {
			logf("reload failed: %v", err)
			reloadFails++
			continue
		}
		reloadSecs = append(reloadSecs, time.Since(t0).Seconds())
	}

	var failed int
	for _, o := range outs {
		if !o.ok {
			failed++
		}
	}
	quiet, quietTime := quietest(outs, sliceSteal, slice)
	lat := okLatenciesMs(quiet)
	vals, bases := layerCounters(before, after, w.companies)
	note("layer_counters", map[string]any{"values": vals, "bases": bases, "window_requests": len(outs)})
	note("samples", map[string]any{
		"requests": len(outs), "failed": failed, "elapsed_s": elapsed.Seconds(),
		"quiet_requests": len(quiet), "quiet_ok": len(lat), "quiet_s": quietTime.Seconds(),
		"p99_ms_from": len(lat), "beyond_p99": len(lat) - int(math.Ceil(0.99*float64(len(lat)))),
		"setups": setups, "reloads": reloadSecs, "reload_failures": reloadFails,
		"stream_wraps":      l.wraps.Load(),
		"slice_steal_share": sliceSteal,
	})
	if len(outs) == 0 || len(lat) == 0 {
		return nil, fmt.Errorf("no request answered in the window")
	}
	if len(reloadSecs) == 0 {
		return nil, fmt.Errorf("no /admin/reload succeeded")
	}
	return &result{
		Correct:   checkErr == nil && reloadFails == 0,
		Attempted: len(outs),
		Failed:    failed,
		Metrics: map[string]metric{
			"qps":          {float64(len(lat)) / quietTime.Seconds(), "1/s"},
			"p50_ms":       {quantile(lat, 0.50), "ms"},
			"p99_ms":       {quantile(lat, 0.99), "ms"},
			"slo_ok_ratio": {sloOKRatio(outs, sloLimit), "ratio"},
			"ok_ratio":     {float64(len(outs)-failed) / float64(len(outs)), "ratio"},
			"recall_at_10": {recall, "ratio"},
			"setup_s":      {median(setups), "s"},
			"rss_mb":       {rss, "MiB"},
			"reload_s":     {median(reloadSecs), "s"},
		},
	}, nil
}

// postReload asks one ibserve to re-read its corpus and model.
func postReload(addr string) error {
	client := &http.Client{Timeout: 120 * time.Second}
	resp, err := client.Post("http://"+addr+"/admin/reload", "application/json", nil)
	if err != nil {
		return err
	}
	body, _ := io.ReadAll(resp.Body) // the status decides; the body only explains it
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s /admin/reload: status %d: %s", addr, resp.StatusCode, body)
	}
	return nil
}
