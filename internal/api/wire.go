package api

import "repro/internal/core"

// JSON wire types of the query API. ibserve renders them; ibrouter decodes
// its shards' answers into them, merges, and renders them again, so a fully
// healthy fan-out is byte-identical to one unsharded ibserve.

// FilterParams mirrors core.Filter in the JSON body shape of the POST
// endpoints; zero values mean "any", as in core.
type FilterParams struct {
	SIC2         int     `json:"sic2,omitempty"`
	Country      string  `json:"country,omitempty"`
	MinEmployees int     `json:"min_employees,omitempty"`
	MaxEmployees int     `json:"max_employees,omitempty"`
	MinRevenueM  float64 `json:"min_revenue_m,omitempty"`
	MaxRevenueM  float64 `json:"max_revenue_m,omitempty"`
}

// Filter converts the body shape to a core.Filter.
func (p FilterParams) Filter() core.Filter {
	return core.Filter{
		SIC2: p.SIC2, Country: p.Country,
		MinEmployees: p.MinEmployees, MaxEmployees: p.MaxEmployees,
		MinRevenueM: p.MinRevenueM, MaxRevenueM: p.MaxRevenueM,
	}
}

// Degraded marks a router answer merged without every shard. It rides at
// the end of each response with omitempty; ibserve never sets it, so its
// bytes are unchanged by it.
type Degraded struct {
	Partial       bool  `json:"partial,omitempty"`
	MissingShards []int `json:"missing_shards,omitempty"`
}

// Match is one similar company.
type Match struct {
	CompanyID  int     `json:"company_id"`
	Name       string  `json:"name"`
	Similarity float64 `json:"similarity"`
}

// SimilarResponse is the GET /v1/similar/{id} body.
type SimilarResponse struct {
	CompanyID int     `json:"company_id"`
	Name      string  `json:"name"`
	K         int     `json:"k"`
	Matches   []Match `json:"matches"`
	Degraded
}

// Recommendation is one recommended product category.
type Recommendation struct {
	Category int     `json:"category"`
	Name     string  `json:"name"`
	Strength float64 `json:"strength"`
	Owners   int     `json:"owners"`
}

// RecommendResponse is the GET /v1/recommend/{id} body, and the answer of
// POST /internal/recommend.
type RecommendResponse struct {
	CompanyID       int              `json:"company_id"`
	Name            string           `json:"name"`
	Peers           int              `json:"peers"`
	Recommendations []Recommendation `json:"recommendations"`
	Degraded
}

// Prospect is one white-space prospect and the client it is nearest to.
type Prospect struct {
	CompanyID     int     `json:"company_id"`
	Name          string  `json:"name"`
	NearestClient int     `json:"nearest_client"`
	Similarity    float64 `json:"similarity"`
}

// WhitespaceRequest is the POST /v1/whitespace body.
type WhitespaceRequest struct {
	Clients []int        `json:"clients"`
	K       int          `json:"k,omitempty"`
	Filter  FilterParams `json:"filter"`
}

// WhitespaceResponse is the POST /v1/whitespace answer.
type WhitespaceResponse struct {
	K         int        `json:"k"`
	Prospects []Prospect `json:"prospects"`
	Degraded
}

// InferRequest is the POST /v1/infer body.
type InferRequest struct {
	Owned  []int        `json:"owned"`
	K      int          `json:"k,omitempty"`
	Filter FilterParams `json:"filter"`
}

// InferResponse is the POST /v1/infer answer.
type InferResponse struct {
	Theta   []float64 `json:"theta"`
	K       int       `json:"k"`
	Matches []Match   `json:"matches"`
	Degraded
}

// InternalRecommendRequest is the body of POST /internal/recommend — the
// shard-side half of two-phase sharded recommendation. A scatter-gather
// router first merges the global top-k peer set from every shard's
// /v1/similar answer, then posts it here so one shard (every shard holds the
// full corpus and representations — only the candidate scans are
// partitioned) scores the gap-based recommendations over the exact peers the
// unsharded path would have used. Peers is the request's peer-count
// parameter, echoed back so the response is byte-identical to
// /v1/recommend/{id} on an unsharded server.
type InternalRecommendRequest struct {
	CompanyID int             `json:"company_id"`
	Peers     int             `json:"peers"`
	Matches   []InternalMatch `json:"matches"`
}

// InternalMatch is one merged peer of an InternalRecommendRequest.
type InternalMatch struct {
	CompanyID  int     `json:"company_id"`
	Similarity float64 `json:"similarity"`
}
