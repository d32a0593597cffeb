package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one request form a tree:
// parent is the index of the enclosing span within the request's trace, -1
// for the root. Times are nanoseconds on the process's monotonic clock.
type span struct {
	name       string
	start, end int64
	parent     int
}

func (s span) dur() int64 { return s.end - s.start }

// base is the time origin of clock.
var base = time.Now()

// clock reads monotonic nanoseconds since base.
func clock() int64 { return int64(time.Since(base)) }

// reqTrace is the span tree of one request. Spans may be recorded from
// several goroutines (a router's concurrent shard calls), hence the lock.
// cur is the span that calls made through timed nest under. A nil
// *reqTrace records nothing and only runs the calls.
type reqTrace struct {
	mu    sync.Mutex
	spans []span
	cur   int
}

func newReqTrace() *reqTrace { return &reqTrace{cur: -1} }

// begin opens a span named name under parent and returns its index.
func (t *reqTrace) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, start: clock(), parent: parent})
	return len(t.spans) - 1
}

// finish closes span i.
func (t *reqTrace) finish(i int) {
	if t == nil {
		return
	}
	end := clock()
	t.mu.Lock()
	t.spans[i].end = end
	t.mu.Unlock()
}

// timed runs fn under a span named name, child of the current span, and
// makes it the current span while fn runs.
func (t *reqTrace) timed(name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	i := t.begin(name, t.cur)
	prev := t.cur
	t.cur = i
	fn()
	t.cur = prev
	t.finish(i)
}

// union returns the total length of the union of the intervals.
func union(iv [][2]int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	lo, hi := iv[0][0], iv[0][1]
	for _, x := range iv[1:] {
		if x[0] > hi {
			total += hi - lo
			lo, hi = x[0], x[1]
			continue
		}
		if x[1] > hi {
			hi = x[1]
		}
	}
	return total + hi - lo
}

// childCover returns, per span, the length of the union of its children's
// intervals: concurrent children count once, sequential ones add up.
func childCover(spans []span) []int64 {
	kids := make([][][2]int64, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], [2]int64{s.start, s.end})
		}
	}
	cover := make([]int64, len(spans))
	for i := range spans {
		cover[i] = union(kids[i])
	}
	return cover
}

// selfTimes returns each span's self time: its duration minus the time its
// children cover. Children re-executed after their parent returned still
// subtract their full length, so one request's self time can come out
// negative; its mean over a run is the layer's own cost.
func selfTimes(spans []span) []int64 {
	cover := childCover(spans)
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - cover[i]
	}
	return self
}
