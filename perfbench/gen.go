package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/url"
	"sort"

	"repro/internal/core"
)

// corpusMeta is what request generation needs to know about a prepared
// corpus, so a run never re-parses the corpus just to draw requests.
type corpusMeta struct {
	Companies  int      `json:"companies"`
	Categories int      `json:"categories"`
	Countries  []string `json:"countries"` // distinct, sorted
	SIC2       []int    `json:"sic2"`      // distinct, sorted
}

// mix is the endpoint mix of every workload: the default ibload mix.
var mix = []struct {
	endpoint string
	weight   float64
}{{"similar", 0.55}, {"recommend", 0.30}, {"whitespace", 0.10}, {"infer", 0.05}}

const (
	zipfSkew   = 1.1  // company popularity exponent
	filterProb = 0.25 // share of queries carrying a business filter
)

var kChoices = []int{5, 10, 25}

// request is one generated query in both its wire form (method, path, body)
// and its decoded form, which the in-process traced run hands to the layer
// functions directly.
type request struct {
	endpoint string
	method   string
	path     string
	body     []byte

	id      int // similar, recommend
	k       int // similar, whitespace, infer
	peers   int // recommend
	clients []int
	owned   []int
	filter  core.Filter
}

// generator draws the seeded request stream. Company popularity is zipf
// over a permutation of the ids, sampled by binary search over the
// cumulative weights, so a draw costs O(log n) at any corpus size. Which
// companies are popular is a property of the corpus: the permutation comes
// from the corpus seed, and the workload seed draws the requests. (Letting
// the workload seed pick the hot companies too moved exact-100k's p50 by a
// third from seed to seed.)
type generator struct {
	r    *rand.Rand
	meta corpusMeta
	ids  []int     // popularity rank -> company id
	cdf  []float64 // cumulative zipf weight by rank, last = 1
	mcdf []float64 // cumulative endpoint mix
}

func newGenerator(m corpusMeta, seed int64) *generator {
	r := rand.New(rand.NewPCG(uint64(seed), 0x9e3779b97f4a7c15))
	n := m.Companies
	cdf := make([]float64, n)
	var acc float64
	for i := range cdf {
		acc += math.Pow(float64(i+1), -zipfSkew)
		cdf[i] = acc
	}
	for i := range cdf {
		cdf[i] /= acc
	}
	var mcdf []float64
	acc = 0
	for _, e := range mix {
		acc += e.weight
		mcdf = append(mcdf, acc)
	}
	popularity := rand.New(rand.NewPCG(corpusSeed, 0x706f70756c6172))
	return &generator{r: r, meta: m, ids: popularity.Perm(n), cdf: cdf, mcdf: mcdf}
}

// pick returns the index of the first cumulative weight above a uniform draw.
func pick(r *rand.Rand, cdf []float64) int {
	u := r.Float64() * cdf[len(cdf)-1]
	i := sort.SearchFloat64s(cdf, u)
	if i < len(cdf) && cdf[i] == u {
		i++
	}
	if i >= len(cdf) {
		i = len(cdf) - 1
	}
	return i
}

func (g *generator) company() int { return g.ids[pick(g.r, g.cdf)] }

// drawFilter returns a filter on one of the corpus's real countries or SIC2
// codes for filterProb of the queries, otherwise the empty filter.
func (g *generator) drawFilter() core.Filter {
	var f core.Filter
	if g.r.Float64() >= filterProb {
		return f
	}
	if g.r.IntN(2) == 0 && len(g.meta.Countries) > 0 {
		f.Country = g.meta.Countries[g.r.IntN(len(g.meta.Countries))]
	} else if len(g.meta.SIC2) > 0 {
		f.SIC2 = g.meta.SIC2[g.r.IntN(len(g.meta.SIC2))]
	}
	return f
}

// filterQuery renders f as query parameters (leading '&', or "").
func filterQuery(f core.Filter) string {
	switch {
	case f.Country != "":
		return "&country=" + url.QueryEscape(f.Country)
	case f.SIC2 != 0:
		return fmt.Sprintf("&sic2=%d", f.SIC2)
	}
	return ""
}

// filterBody renders f as the "filter" object of a POST body, or nil.
func filterBody(f core.Filter) map[string]any {
	switch {
	case f.Country != "":
		return map[string]any{"country": f.Country}
	case f.SIC2 != 0:
		return map[string]any{"sic2": f.SIC2}
	}
	return nil
}

func (g *generator) next() request {
	q := request{endpoint: mix[pick(g.r, g.mcdf)].endpoint, method: "GET"}
	q.k = kChoices[g.r.IntN(len(kChoices))]
	q.filter = g.drawFilter()
	switch q.endpoint {
	case "similar":
		q.id = g.company()
		q.path = fmt.Sprintf("/v1/similar/%d?k=%d%s", q.id, q.k, filterQuery(q.filter))
	case "recommend":
		q.id = g.company()
		q.peers = 5 * (1 + g.r.IntN(5))
		q.path = fmt.Sprintf("/v1/recommend/%d?peers=%d%s", q.id, q.peers, filterQuery(q.filter))
	case "whitespace":
		q.clients = make([]int, 2+g.r.IntN(4))
		for i := range q.clients {
			q.clients[i] = g.company()
		}
		q.method, q.path = "POST", "/v1/whitespace"
		q.body = jsonBody(map[string]any{"clients": q.clients, "k": q.k}, filterBody(q.filter))
	case "infer":
		q.owned = make([]int, 1+g.r.IntN(4))
		for i := range q.owned {
			q.owned[i] = g.r.IntN(g.meta.Categories)
		}
		q.method, q.path = "POST", "/v1/infer"
		q.body = jsonBody(map[string]any{"owned": q.owned, "k": q.k}, filterBody(q.filter))
	}
	return q
}

// stream pre-generates n requests, so the timed window replays from memory.
func (g *generator) stream(n int) []request {
	out := make([]request, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

func jsonBody(fields, filter map[string]any) []byte {
	if filter != nil {
		fields["filter"] = filter
	}
	raw, err := json.Marshal(fields)
	if err != nil {
		panic("perfbench: marshalling a body of ints and strings: " + err.Error())
	}
	return raw
}
