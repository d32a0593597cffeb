package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (0 < q <= 1): the
// smallest value with at least q·n values at or below it. xs need not be
// sorted; it is not modified. An empty sample yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the nearest-rank 0.5-quantile.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// mean is the arithmetic mean; an empty sample yields 0.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// outcome is one request as the client saw it.
type outcome struct {
	sent    time.Duration // from the start of the window
	latency time.Duration // from send to answer
	ok      bool          // 2xx answer
}

// sloOKRatio is the share of attempted requests answered 2xx within limit.
// A failed request counts as a miss whatever its latency.
func sloOKRatio(outs []outcome, limit time.Duration) float64 {
	if len(outs) == 0 {
		return 0
	}
	var good int
	for _, o := range outs {
		if o.ok && o.latency <= limit {
			good++
		}
	}
	return float64(good) / float64(len(outs))
}

// okLatenciesMs returns the latencies, in milliseconds, of the 2xx answers.
func okLatenciesMs(outs []outcome) []float64 {
	ms := make([]float64, 0, len(outs))
	for _, o := range outs {
		if o.ok {
			ms = append(ms, float64(o.latency)/float64(time.Millisecond))
		}
	}
	return ms
}

// recallAt returns |got ∩ want| / |want|; an empty want yields 1 (nothing
// to find, nothing missed).
func recallAt(got, want []int) float64 {
	if len(want) == 0 {
		return 1
	}
	in := make(map[int]bool, len(got))
	for _, id := range got {
		in[id] = true
	}
	var hit int
	for _, id := range want {
		if in[id] {
			hit++
		}
	}
	return float64(hit) / float64(len(want))
}

// ratio divides, returning 0 for a zero denominator.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// quietest keeps the outcomes sent during the half of the window's slices
// (rounded up) in which the host's hypervisor took the least CPU, and
// returns them with the time those slices span. steal[i] is the steal share
// of slice i, [i·slice, (i+1)·slice). Ties go to even-numbered slices first,
// then the earlier slice, so on a quiet host the kept slices spread evenly
// over the window.
func quietest(outs []outcome, steal []float64, slice time.Duration) ([]outcome, time.Duration) {
	order := make([]int, len(steal))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		i, j := order[a], order[b]
		if steal[i] != steal[j] {
			return steal[i] < steal[j]
		}
		if i%2 != j%2 {
			return i%2 == 0
		}
		return i < j
	})
	n := (len(steal) + 1) / 2
	keep := make([]bool, len(steal))
	for _, i := range order[:n] {
		keep[i] = true
	}
	var sel []outcome
	for _, o := range outs {
		if i := int(o.sent / slice); i < len(keep) && keep[i] {
			sel = append(sel, o)
		}
	}
	return sel, time.Duration(n) * slice
}
