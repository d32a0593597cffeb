// Package core implements the paper's deployed application (Section 6): a
// company-similarity index over learned LDA representations with business
// filtering (industry, location, employees, revenue), top-k similar-company
// search, and gap-based product recommendations — products that similar
// companies own but the target lacks, weighted by company similarity.
package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/corpus"
	"repro/internal/mat"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/trace"
)

// Serving-path metrics. Candidate counters are accumulated locally per query
// and added once, so the per-candidate hot loop carries no atomic traffic.
var (
	topkLatency = obs.Default().Histogram("topk_latency_seconds",
		"end-to-end latency of similarity top-k queries", obs.DefBuckets)
	topkRequests = obs.Default().Counter("topk_requests_total",
		"similarity top-k queries served")
	topkAdmitted = obs.Default().Counter("topk_candidates_admitted_total",
		"candidate companies that passed the business filter during top-k scans")
	topkFiltered = obs.Default().Counter("topk_candidates_filtered_total",
		"candidate companies rejected by the business filter during top-k scans")
	recRequests = obs.Default().Counter("recommend_requests_total",
		"gap-based product recommendation queries served")
	recFanout = obs.Default().Histogram("recommend_fanout_products",
		"number of recommended product categories per recommendation query", obs.SizeBuckets)
	wsLatency = obs.Default().Histogram("whitespace_latency_seconds",
		"end-to-end latency of white-space prospect queries", obs.DefBuckets)
	wsRequests = obs.Default().Counter("whitespace_requests_total",
		"white-space prospect queries served")
	topkErrors = obs.Default().Counter("topk_errors_total",
		"similarity top-k queries that failed (invalid arguments or cancelled)")
	recErrors = obs.Default().Counter("recommend_errors_total",
		"recommendation queries that failed (invalid arguments or cancelled)")
	wsErrors = obs.Default().Counter("whitespace_errors_total",
		"white-space queries that failed (invalid arguments or cancelled)")
	indexCompanies = obs.Default().Gauge("index_companies",
		"companies in the most recently built similarity index")
	annTopkQueries = obs.Default().Counter("ann_topk_queries_total",
		"top-k queries answered through the ANN candidate pruner (exact scans are topk_requests_total minus this)")
	annWhitespaceQueries = obs.Default().Counter("ann_whitespace_queries_total",
		"white-space queries answered through the ANN candidate pruner")
	annTopkCandidates = obs.Default().Counter("ann_topk_candidates_scanned_total",
		"candidate companies the ANN pruner admitted into top-k re-rank pools")
	annWhitespaceCandidates = obs.Default().Counter("ann_whitespace_candidates_scanned_total",
		"candidate companies the ANN pruner admitted into white-space re-rank pools")
	annCellsProbed = obs.Default().Counter("ann_cells_probed_total",
		"centroid cells scanned across all ANN-pruned queries")
)

// Metric selects the vector distance used for company similarity.
type Metric int

const (
	// Cosine similarity: the default for topic mixtures.
	Cosine Metric = iota
	// Euclidean converts distance d to similarity 1/(1+d).
	Euclidean
)

// String names the metric.
func (m Metric) String() string {
	if m == Euclidean {
		return "euclidean"
	}
	return "cosine"
}

// Filter restricts similarity search results, mirroring the tool's filtering
// capabilities "based on industry, location, number of employees and
// revenue". Zero values mean "any".
type Filter struct {
	SIC2         int
	Country      string
	MinEmployees int
	MaxEmployees int
	MinRevenueM  float64
	MaxRevenueM  float64
}

// Admits reports whether a company passes the filter.
func (f Filter) Admits(c *corpus.Company) bool {
	if f.SIC2 != 0 && c.SIC2 != f.SIC2 {
		return false
	}
	if f.Country != "" && c.Country != f.Country {
		return false
	}
	if f.MinEmployees != 0 && c.Employees < f.MinEmployees {
		return false
	}
	if f.MaxEmployees != 0 && c.Employees > f.MaxEmployees {
		return false
	}
	if f.MinRevenueM != 0 && c.RevenueM < f.MinRevenueM {
		return false
	}
	if f.MaxRevenueM != 0 && c.RevenueM > f.MaxRevenueM {
		return false
	}
	return true
}

// Key returns a canonical compact encoding of the filter. Two filters admit
// the same companies iff their keys are equal, so response caches can key on
// endpoint + query id + Key(). Country is a free-form client-supplied string
// interpolated into the `|`-delimited key, so it is quoted: with %q every
// field boundary is unforgeable by construction and the encoding stays
// injective no matter what bytes (pipes, the other fields' prefixes, quotes)
// a crafted request smuggles into the country — a collision here would serve
// one filter's cached response to a differently-filtered request.
func (f Filter) Key() string {
	return fmt.Sprintf("s%d|c%q|e%d:%d|r%g:%g",
		f.SIC2, f.Country, f.MinEmployees, f.MaxEmployees, f.MinRevenueM, f.MaxRevenueM)
}

// Match is one similarity-search hit.
type Match struct {
	CompanyID  int
	Similarity float64
}

// Index is the in-memory similarity index: one representation vector per
// company (row i of reps belongs to corpus company i). An index may be
// restricted to one partition of the corpus (SetPartition) for sharded
// serving: the representations stay complete — so query vectors and
// recommendation scoring remain available for any company — but the
// candidate scans visit only the owned partition, and a scatter-gather
// merge of every partition's answers under the package's total orders
// reproduces the unpartitioned answer byte for byte.
type Index struct {
	Corpus *corpus.Corpus
	Reps   *mat.Matrix
	Metric Metric

	part, parts int // candidate-scan partition; parts <= 1 scans everything

	pruner Pruner // nil = exact full scan (the default escape hatch)
}

// Pruner narrows a candidate scan to an approximate pool — the ANN fast
// path. Implementations (internal/ann's coarse k-means router) return, for a
// set of query vectors, the union of their probed cells: one slice per cell,
// ascending company ids within a cell, disjoint cells in ascending order.
// The scan re-ranks the pool exactly (same scorer, same filter, same total
// order), so pruning only ever affects which candidates are considered,
// never how survivors are ranked. A Pruner must be safe for concurrent use
// and deterministic: identical queries yield identical pools at any worker
// count.
type Pruner interface {
	Candidates(queries [][]float64) [][]int64
	Info() PrunerInfo
}

// PrunerInfo describes an installed candidate pruner for health reporting.
type PrunerInfo struct {
	Cells  int  // coarse cells in the index
	NProbe int  // cells probed per query vector
	Mapped bool // centroids and postings alias an mmap (IBSNAP v2)
}

// SetPruner installs an approximate candidate source on the index's scans;
// nil restores the exact full scan. Install at build time, before serving —
// the field is not synchronized. Partitioning composes: a pruned scan on a
// partitioned index still visits only owned candidates, so per-shard pruned
// answers merge (MergeTopK) byte-identically to an unsharded pruned server.
func (ix *Index) SetPruner(p Pruner) { ix.pruner = p }

// Pruner returns the installed candidate pruner, nil when scans are exact.
func (ix *Index) Pruner() Pruner { return ix.pruner }

// PartitionOf maps a company id to its partition in [0, parts): FNV-1a over
// the id's eight little-endian bytes, mod parts. The hash is fixed — never
// change it — so the split is byte-stable across processes, platforms and
// releases, which is what lets shard processes agree on ownership without
// coordination. parts <= 1 maps everything to partition 0.
func PartitionOf(id, parts int) int {
	if parts <= 1 {
		return 0
	}
	h := uint64(14695981039346656037) // FNV-1a 64-bit offset basis
	v := uint64(id)
	for i := 0; i < 8; i++ {
		h ^= (v >> (8 * i)) & 0xff
		h *= 1099511628211 // FNV-1a 64-bit prime
	}
	return int(h % uint64(parts))
}

// SetPartition restricts the index's candidate scans to partition part of
// parts (per PartitionOf). Call once at build time, before serving; parts of
// 0 or 1 restores the full scan.
func (ix *Index) SetPartition(part, parts int) error {
	if parts <= 1 {
		ix.part, ix.parts = 0, 0
		return nil
	}
	if part < 0 || part >= parts {
		return fmt.Errorf("core: partition %d outside [0,%d)", part, parts)
	}
	ix.part, ix.parts = part, parts
	return nil
}

// Partition reports the scan restriction: the partition index and count
// (0, 1 when unpartitioned).
func (ix *Index) Partition() (part, parts int) {
	if ix.parts <= 1 {
		return 0, 1
	}
	return ix.part, ix.parts
}

// owns reports whether company i is a scan candidate on this index.
func (ix *Index) owns(i int) bool {
	return ix.parts <= 1 || PartitionOf(i, ix.parts) == ix.part
}

// OwnedCompanies counts the companies this index's candidate scans visit.
func (ix *Index) OwnedCompanies() int {
	if ix.parts <= 1 {
		return ix.Corpus.N()
	}
	var n int
	for i := 0; i < ix.Corpus.N(); i++ {
		if ix.owns(i) {
			n++
		}
	}
	return n
}

// NewIndex validates shapes and builds an index.
func NewIndex(c *corpus.Corpus, reps *mat.Matrix, metric Metric) (*Index, error) {
	if reps.Rows != c.N() {
		return nil, fmt.Errorf("core: %d representation rows for %d companies", reps.Rows, c.N())
	}
	if reps.Cols < 1 {
		return nil, fmt.Errorf("core: empty representations")
	}
	indexCompanies.Set(float64(c.N()))
	return &Index{Corpus: c, Reps: reps, Metric: metric}, nil
}

// similarity computes the similarity between two representation vectors.
func (ix *Index) similarity(a, b []float64) float64 {
	switch ix.Metric {
	case Euclidean:
		return 1 / (1 + math.Sqrt(mat.SqDist(a, b)))
	default:
		return mat.CosineSim(a, b)
	}
}

// TopK returns the k companies most similar to company id (excluding
// itself) that pass the filter, sorted by descending similarity with
// deterministic id tie-breaks.
func (ix *Index) TopK(id, k int, f Filter) ([]Match, error) {
	return ix.TopKContext(context.Background(), id, k, f)
}

// TopKContext is TopK with a deadline- or cancellation-carrying context
// threaded into the sharded candidate scan, for serving paths that enforce
// per-request deadlines. A cancelled query returns ctx.Err() and counts
// toward topk_errors_total, not topk_requests_total.
func (ix *Index) TopKContext(ctx context.Context, id, k int, f Filter) ([]Match, error) {
	if id < 0 || id >= ix.Corpus.N() {
		topkErrors.Inc()
		return nil, fmt.Errorf("core: company id %d outside [0,%d)", id, ix.Corpus.N())
	}
	return ix.topKByVector(ctx, ix.Reps.Row(id), k, f, id)
}

// TopKByVector searches with an explicit query vector (e.g. the inferred
// representation of a company outside the corpus).
func (ix *Index) TopKByVector(query []float64, k int, f Filter) ([]Match, error) {
	return ix.TopKByVectorContext(context.Background(), query, k, f)
}

// TopKByVectorContext is TopKByVector with a per-request context.
func (ix *Index) TopKByVectorContext(ctx context.Context, query []float64, k int, f Filter) ([]Match, error) {
	if len(query) != ix.Reps.Cols {
		topkErrors.Inc()
		return nil, fmt.Errorf("core: query dimension %d, index dimension %d", len(query), ix.Reps.Cols)
	}
	return ix.topKByVector(ctx, query, k, f, -1)
}

// MatchBetter is the total order of the candidate scans: similarity
// descending with deterministic id tie-breaks. Being total, the top-k it
// selects is unique, so sharded selection returns exactly what a full sort
// would at any shard or worker count. Exported so scatter-gather routers can
// merge per-shard answers under the exact order the scans used.
func MatchBetter(a, b Match) bool {
	if a.Similarity != b.Similarity {
		return a.Similarity > b.Similarity
	}
	return a.CompanyID < b.CompanyID
}

// topkHeap is a bounded selection heap: a min-heap under better holding at
// most k elements, with the worst retained element at the root. Pushing N
// candidates costs O(N log k) instead of the O(N log N) of sorting the full
// candidate set. better must be a total order so the selected top-k is
// unique regardless of push order or sharding.
type topkHeap[T any] struct {
	k      int
	better func(a, b T) bool
	m      []T
}

func newTopkHeap[T any](k int, better func(a, b T) bool) *topkHeap[T] {
	return &topkHeap[T]{k: k, better: better}
}

// push offers a candidate, evicting the worst retained element when full.
func (h *topkHeap[T]) push(c T) {
	if len(h.m) < h.k {
		h.m = append(h.m, c)
		// sift up: a parent better than its child violates the worst-at-root
		// invariant, so swap until the parent is worse (or we reach the root)
		i := len(h.m) - 1
		for i > 0 {
			p := (i - 1) / 2
			if !h.better(h.m[p], h.m[i]) {
				break
			}
			h.m[i], h.m[p] = h.m[p], h.m[i]
			i = p
		}
		return
	}
	if !h.better(c, h.m[0]) {
		return
	}
	h.m[0] = c
	// sift down: move the new root below any worse descendant
	i := 0
	for {
		worst := i
		if l := 2*i + 1; l < len(h.m) && h.better(h.m[worst], h.m[l]) {
			worst = l
		}
		if r := 2*i + 2; r < len(h.m) && h.better(h.m[worst], h.m[r]) {
			worst = r
		}
		if worst == i {
			return
		}
		h.m[i], h.m[worst] = h.m[worst], h.m[i]
		i = worst
	}
}

// sorted drains the heap into best-first order.
func (h *topkHeap[T]) sorted() []T {
	out := h.m
	sort.Slice(out, func(a, b int) bool { return h.better(out[a], out[b]) })
	return out
}

// MergeTopK combines per-shard bounded-heap selections into the global
// top-k: concatenate (at most shards*k elements), sort under the same total
// order, truncate. Deterministic because the order is total — which is why a
// scatter-gather router merging per-process shard answers with this function
// (under MatchBetter or ProspectBetter) reproduces the unsharded answer
// exactly, regardless of response arrival order.
func MergeTopK[T any](shards [][]T, k int, better func(a, b T) bool) []T {
	var total int
	for _, s := range shards {
		total += len(s)
	}
	merged := make([]T, 0, total)
	for _, s := range shards {
		merged = append(merged, s...)
	}
	sort.Slice(merged, func(a, b int) bool { return better(merged[a], merged[b]) })
	if len(merged) > k {
		merged = merged[:k]
	}
	return merged
}

func (ix *Index) topKByVector(ctx context.Context, query []float64, k int, f Filter, exclude int) ([]Match, error) {
	if k < 1 {
		topkErrors.Inc()
		return nil, fmt.Errorf("core: k must be positive, got %d", k)
	}
	start := time.Now()
	n := ix.Corpus.N()
	// The scan span parents the per-shard spans par.ForEachShard records, so
	// a traced request decomposes into its shard fan-out.
	ctx, sp := trace.Start(ctx, "core.topk")
	sp.AttrInt("k", int64(k))
	sp.AttrInt("candidates", int64(n))
	sc := NewScorer(ix.Metric, query)
	type shardOut struct {
		matches            []Match
		admitted, rejected uint64
	}
	var out []shardOut
	var err error
	if ix.pruner != nil {
		cells := ix.pruner.Candidates([][]float64{query})
		var pool int64
		for _, cell := range cells {
			pool += int64(len(cell))
		}
		sp.Attr("mode", "ann")
		sp.AttrInt("cells_probed", int64(len(cells)))
		sp.AttrInt("pool", pool)
		annTopkQueries.Inc()
		annTopkCandidates.Add(uint64(pool))
		annCellsProbed.Add(uint64(len(cells)))
		out = make([]shardOut, len(cells))
		err = par.ForEach(ctx, len(cells), func(ci int) error {
			h := newTopkHeap(k, MatchBetter)
			var admitted, rejected uint64
			for _, id := range cells[ci] {
				i := int(id)
				if i == exclude || !ix.owns(i) {
					continue
				}
				if !f.Admits(&ix.Corpus.Companies[i]) {
					rejected++
					continue
				}
				admitted++
				h.push(Match{CompanyID: i, Similarity: sc.Score(ix.Reps.Row(i))})
			}
			out[ci] = shardOut{matches: h.sorted(), admitted: admitted, rejected: rejected}
			return nil
		})
	} else {
		out = make([]shardOut, par.NumShards(n))
		err = par.ForEachShard(ctx, n, func(s, lo, hi int) error {
			h := newTopkHeap(k, MatchBetter)
			var admitted, rejected uint64
			for i := lo; i < hi; i++ {
				if i == exclude || !ix.owns(i) {
					continue
				}
				if !f.Admits(&ix.Corpus.Companies[i]) {
					rejected++
					continue
				}
				admitted++
				h.push(Match{CompanyID: i, Similarity: sc.Score(ix.Reps.Row(i))})
			}
			out[s] = shardOut{matches: h.sorted(), admitted: admitted, rejected: rejected}
			return nil
		})
	}
	if err != nil {
		topkErrors.Inc()
		sp.Error(err)
		sp.End()
		return nil, err
	}
	var admitted, rejected uint64
	perShard := make([][]Match, len(out))
	for s := range out {
		perShard[s] = out[s].matches
		admitted += out[s].admitted
		rejected += out[s].rejected
	}
	matches := MergeTopK(perShard, k, MatchBetter)
	sp.AttrInt("admitted", int64(admitted))
	sp.AttrInt("filtered", int64(rejected))
	sp.End()
	topkRequests.Inc()
	topkAdmitted.Add(admitted)
	topkFiltered.Add(rejected)
	topkLatency.Observe(time.Since(start).Seconds())
	return matches, nil
}

// ProductRecommendation is one gap-based recommendation: a category the
// target lacks, scored by the similarity-weighted share of similar companies
// that own it ("the strength of the recommendation is measured via the
// strength of the company similarity").
type ProductRecommendation struct {
	Category int
	Name     string
	Strength float64 // in [0,1]: similarity-weighted ownership among peers
	Owners   int     // peers owning the category
}

// RecommendFromSimilar finds the target's top-k similar companies (after
// filtering) and recommends the products they own that the target lacks.
func (ix *Index) RecommendFromSimilar(id, k int, f Filter) ([]ProductRecommendation, error) {
	return ix.RecommendFromSimilarContext(context.Background(), id, k, f)
}

// RecommendFromSimilarContext is RecommendFromSimilar with a per-request
// context. Every successfully served query — including one whose answer is
// empty because the filter admits no peers — counts toward
// recommend_requests_total and observes its fan-out; failed queries count
// toward recommend_errors_total only.
func (ix *Index) RecommendFromSimilarContext(ctx context.Context, id, k int, f Filter) ([]ProductRecommendation, error) {
	ctx, sp := trace.Start(ctx, "core.recommend")
	sp.AttrInt("peers_wanted", int64(k))
	peers, err := ix.TopKContext(ctx, id, k, f)
	if err != nil {
		recErrors.Inc()
		sp.Error(err)
		sp.End()
		return nil, err
	}
	out := ix.recommendFromPeers(id, peers)
	sp.AttrInt("fanout", int64(len(out)))
	sp.End()
	recRequests.Inc()
	recFanout.Observe(float64(len(out)))
	return out, nil
}

// RecommendFromPeers scores gap-based recommendations for id over an
// explicitly supplied peer set — the shard-side half of two-phase sharded
// recommendation, where a router first scatter-gathers the global top-k
// peers (each shard scanning its partition) and then asks one shard to score
// the merged set. Given the peers the unpartitioned TopK would select, the
// result is byte-identical to RecommendFromSimilar. Served queries count
// toward recommend_requests_total exactly like the single-process path.
func (ix *Index) RecommendFromPeers(id int, peers []Match) ([]ProductRecommendation, error) {
	if id < 0 || id >= ix.Corpus.N() {
		recErrors.Inc()
		return nil, fmt.Errorf("core: company id %d outside [0,%d)", id, ix.Corpus.N())
	}
	var totalSim float64
	for _, p := range peers {
		if p.CompanyID < 0 || p.CompanyID >= ix.Corpus.N() {
			recErrors.Inc()
			return nil, fmt.Errorf("core: peer id %d outside [0,%d)", p.CompanyID, ix.Corpus.N())
		}
		totalSim += math.Max(p.Similarity, 0)
	}
	// Supplied similarities are outside bytes: a sum that overflows would
	// turn the strengths into NaN (Inf/Inf), which no response can carry.
	if math.IsInf(totalSim, 0) || math.IsNaN(totalSim) {
		recErrors.Inc()
		return nil, fmt.Errorf("core: peer similarities sum to %v, not a finite weight", totalSim)
	}
	out := ix.recommendFromPeers(id, peers)
	recRequests.Inc()
	recFanout.Observe(float64(len(out)))
	return out, nil
}

// recommendFromPeers scores the gap-based recommendations for id given its
// already-selected peer set. An empty peer set, or one whose similarities
// are all non-positive, yields no recommendations.
func (ix *Index) recommendFromPeers(id int, peers []Match) []ProductRecommendation {
	if len(peers) == 0 {
		return nil
	}
	target := &ix.Corpus.Companies[id]
	owned := make(map[int]bool)
	for _, a := range target.Acquisitions {
		owned[a.Category] = true
	}
	// Sparse accumulation: peers own a handful of categories, so a dense
	// corpus-vocabulary-sized tally (two O(M) slices allocated and zeroed per
	// query) wastes nearly all its work. The map holds only touched
	// categories; per-category weights still accumulate in peer order, and the
	// keys are walked in ascending category order like the dense loop did, so
	// the output is gob-byte-identical (pinned by
	// TestRecommendFromPeersSparseMatchesDense).
	type tally struct {
		weight float64
		owners int
	}
	gaps := make(map[int]tally, 16)
	var totalSim float64
	for _, p := range peers {
		sim := math.Max(p.Similarity, 0)
		totalSim += sim
		for _, a := range ix.Corpus.Companies[p.CompanyID].Acquisitions {
			if owned[a.Category] {
				continue
			}
			t := gaps[a.Category]
			t.weight += sim
			t.owners++
			gaps[a.Category] = t
		}
	}
	if totalSim == 0 {
		return nil
	}
	cats := make([]int, 0, len(gaps))
	for cat := range gaps {
		cats = append(cats, cat)
	}
	sort.Ints(cats)
	out := make([]ProductRecommendation, 0, len(cats))
	for _, cat := range cats {
		t := gaps[cat]
		out = append(out, ProductRecommendation{
			Category: cat,
			Name:     ix.Corpus.Catalog.Name(cat),
			Strength: t.weight / totalSim,
			Owners:   t.owners,
		})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Strength != out[b].Strength {
			return out[a].Strength > out[b].Strength
		}
		return out[a].Category < out[b].Category
	})
	return out
}

// Whitespace identifies prospect companies similar to an existing client
// set: for each non-client company passing the filter, the similarity to
// its nearest client. This is the paper's white-space motivation — "identify
// companies that are similar to existing clients and therefore have a high
// potential of becoming new customers".
type WhitespaceProspect struct {
	CompanyID     int
	NearestClient int
	Similarity    float64
}

// Whitespace ranks non-client companies by their similarity to the nearest
// client, returning the top k.
func (ix *Index) Whitespace(clientIDs []int, k int, f Filter) ([]WhitespaceProspect, error) {
	return ix.WhitespaceContext(context.Background(), clientIDs, k, f)
}

// WhitespaceContext is Whitespace with a per-request context. Only queries
// that pass argument validation and complete the scan count toward
// whitespace_requests_total / whitespace_latency_seconds; rejected or
// cancelled queries count toward whitespace_errors_total.
func (ix *Index) WhitespaceContext(ctx context.Context, clientIDs []int, k int, f Filter) ([]WhitespaceProspect, error) {
	if k < 1 {
		wsErrors.Inc()
		return nil, fmt.Errorf("core: k must be positive, got %d", k)
	}
	if len(clientIDs) == 0 {
		wsErrors.Inc()
		return nil, fmt.Errorf("core: empty client set")
	}
	isClient := make(map[int]bool, len(clientIDs))
	clientRows := make([][]float64, len(clientIDs))
	for ci, id := range clientIDs {
		if id < 0 || id >= ix.Corpus.N() {
			wsErrors.Inc()
			return nil, fmt.Errorf("core: client id %d outside [0,%d)", id, ix.Corpus.N())
		}
		isClient[id] = true
		clientRows[ci] = ix.Reps.Row(id)
	}
	start := time.Now()
	n := ix.Corpus.N()
	ctx, sp := trace.Start(ctx, "core.whitespace")
	sp.AttrInt("clients", int64(len(clientIDs)))
	sp.AttrInt("k", int64(k))
	sp.AttrInt("candidates", int64(n))
	// One kernel per client hoists the client norms out of the O(n·clients)
	// hot loop; scorers are read-only and shared across scan goroutines.
	scorers := make([]*Scorer, len(clientRows))
	for ci, crow := range clientRows {
		scorers[ci] = NewScorer(ix.Metric, crow)
	}
	score := func(h *topkHeap[WhitespaceProspect], i int) {
		rowI := ix.Reps.Row(i)
		best := WhitespaceProspect{CompanyID: i, NearestClient: -1, Similarity: math.Inf(-1)}
		for ci := range scorers {
			if sim := scorers[ci].Score(rowI); sim > best.Similarity {
				best.Similarity, best.NearestClient = sim, clientIDs[ci]
			}
		}
		h.push(best)
	}
	var shards [][]WhitespaceProspect
	var err error
	if ix.pruner != nil {
		cells := ix.pruner.Candidates(clientRows)
		var pool int64
		for _, cell := range cells {
			pool += int64(len(cell))
		}
		sp.Attr("mode", "ann")
		sp.AttrInt("cells_probed", int64(len(cells)))
		sp.AttrInt("pool", pool)
		annWhitespaceQueries.Inc()
		annWhitespaceCandidates.Add(uint64(pool))
		annCellsProbed.Add(uint64(len(cells)))
		shards = make([][]WhitespaceProspect, len(cells))
		err = par.ForEach(ctx, len(cells), func(ci int) error {
			h := newTopkHeap(k, ProspectBetter)
			for _, id := range cells[ci] {
				i := int(id)
				if !ix.owns(i) || isClient[i] || !f.Admits(&ix.Corpus.Companies[i]) {
					continue
				}
				score(h, i)
			}
			shards[ci] = h.sorted()
			return nil
		})
	} else {
		shards = make([][]WhitespaceProspect, par.NumShards(n))
		err = par.ForEachShard(ctx, n, func(s, lo, hi int) error {
			h := newTopkHeap(k, ProspectBetter)
			for i := lo; i < hi; i++ {
				if !ix.owns(i) || isClient[i] || !f.Admits(&ix.Corpus.Companies[i]) {
					continue
				}
				score(h, i)
			}
			shards[s] = h.sorted()
			return nil
		})
	}
	if err != nil {
		wsErrors.Inc()
		sp.Error(err)
		sp.End()
		return nil, err
	}
	out := MergeTopK(shards, k, ProspectBetter)
	sp.End()
	wsRequests.Inc()
	wsLatency.Observe(time.Since(start).Seconds())
	return out, nil
}

// ProspectBetter is the total order for white-space prospects: similarity
// descending with deterministic id tie-breaks. Exported for scatter-gather
// merges, like MatchBetter.
func ProspectBetter(a, b WhitespaceProspect) bool {
	if a.Similarity != b.Similarity {
		return a.Similarity > b.Similarity
	}
	return a.CompanyID < b.CompanyID
}
