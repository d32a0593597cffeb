package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// sender sends one request and reports whether it was answered 2xx. The
// HTTP client and the in-process handler replay both implement it.
type sender func(q *request) bool

// httpSender sends over a client with at most conns connections to base.
func httpSender(base string, conns int) (sender, func()) {
	tr := &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns}
	client := &http.Client{Transport: tr, Timeout: 30 * time.Second}
	send := func(q *request) bool {
		var body io.Reader
		if q.body != nil {
			body = bytes.NewReader(q.body)
		}
		req, err := http.NewRequest(q.method, base+q.path, body)
		if err != nil {
			return false
		}
		if q.body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := client.Do(req)
		if err != nil {
			return false
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode/100 == 2
	}
	return send, tr.CloseIdleConnections
}

// loop is a closed-loop replay of a pre-generated stream: conns clients,
// each sending its next request once the previous one is answered.
type loop struct {
	reqs  []request
	conns int

	next  atomic.Int64 // stream cursor, shared by warm-up and measurement
	wraps atomic.Int64 // times the cursor ran past the stream's end
}

// take returns the next request of the stream.
func (l *loop) take() *request {
	i := l.next.Add(1) - 1
	if i > 0 && i%int64(len(l.reqs)) == 0 {
		l.wraps.Add(1)
	}
	return &l.reqs[i%int64(len(l.reqs))]
}

// run replays for d and returns every request sent in that time and the
// time until the last of them was answered. Cancelling ctx ends the run
// early.
func (l *loop) run(ctx context.Context, send sender, d time.Duration) ([]outcome, time.Duration) {
	ctx, cancel := context.WithTimeout(ctx, d)
	defer cancel()
	t0 := time.Now()
	var mu sync.Mutex
	var outs []outcome
	var wg sync.WaitGroup
	for c := 0; c < l.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []outcome
			for ctx.Err() == nil {
				at := time.Now()
				q := l.take()
				ok := send(q)
				mine = append(mine, outcome{sent: at.Sub(t0), latency: time.Since(at), ok: ok})
			}
			mu.Lock()
			outs = append(outs, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return outs, time.Since(t0)
}
