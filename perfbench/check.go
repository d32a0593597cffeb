package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// minANNRecall is the recall@10 below which an approximate answer set is
// treated as wrong rather than merely approximate.
const minANNRecall = 0.5

// fetcher GETs a path from the system under test.
type fetcher func(path string) (status int, body []byte, err error)

func httpFetcher(base string) fetcher {
	client := &http.Client{Timeout: 30 * time.Second}
	return func(path string) (int, []byte, error) {
		resp, err := client.Get(base + path)
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		return resp.StatusCode, body, err
	}
}

type similarAnswer struct {
	Matches []struct {
		CompanyID  int     `json:"company_id"`
		Similarity float64 `json:"similarity"`
	} `json:"matches"`
}

// checkProbes sends every probe and compares the answers with the exact
// in-process ones. An exact topology must return them id for id and score
// for score; an approximate one must return a well-formed top-k — distinct,
// ordered, each score equal to the exact score of that company — and its
// mean recall@10 is returned.
func checkProbes(fetch fetcher, probes []probe, exact bool) (float64, error) {
	var recall float64
	for _, p := range probes {
		status, body, err := fetch(p.path())
		if err != nil {
			return 0, fmt.Errorf("probe %s: %w", p.path(), err)
		}
		if status != http.StatusOK {
			return 0, fmt.Errorf("probe %s: status %d: %s", p.path(), status, body)
		}
		var a similarAnswer
		if err := json.Unmarshal(body, &a); err != nil {
			return 0, fmt.Errorf("probe %s: %w", p.path(), err)
		}
		got := make([]int, len(a.Matches))
		for i, m := range a.Matches {
			got[i] = m.CompanyID
		}
		if exact {
			if len(got) != len(p.Want) {
				return 0, fmt.Errorf("probe %s: %d matches, exact index has %d", p.path(), len(got), len(p.Want))
			}
			for i, m := range a.Matches {
				if m.CompanyID != p.Want[i] || m.Similarity != p.WantSim[i] {
					return 0, fmt.Errorf("probe %s: match %d is (%d, %v), exact index has (%d, %v)",
						p.path(), i, m.CompanyID, m.Similarity, p.Want[i], p.WantSim[i])
				}
			}
		} else {
			if len(got) > probeK {
				return 0, fmt.Errorf("probe %s: %d matches for k=%d", p.path(), len(got), probeK)
			}
			exactSim := make(map[int]float64, len(p.Want))
			for i, id := range p.Want {
				exactSim[id] = p.WantSim[i]
			}
			seen := map[int]bool{}
			for i, m := range a.Matches {
				if seen[m.CompanyID] || m.CompanyID == p.ID {
					return 0, fmt.Errorf("probe %s: company %d repeated or the query itself", p.path(), m.CompanyID)
				}
				seen[m.CompanyID] = true
				if s, ok := exactSim[m.CompanyID]; ok && s != m.Similarity {
					return 0, fmt.Errorf("probe %s: company %d scored %v, exact %v", p.path(), m.CompanyID, m.Similarity, s)
				}
				// A company the exact top-k left out cannot outscore its last member.
				if _, ok := exactSim[m.CompanyID]; !ok && len(p.Want) == probeK && m.Similarity > p.WantSim[probeK-1] {
					return 0, fmt.Errorf("probe %s: company %d scored %v above the exact k-th %v",
						p.path(), m.CompanyID, m.Similarity, p.WantSim[probeK-1])
				}
				if i > 0 {
					prev := a.Matches[i-1]
					if prev.Similarity < m.Similarity || (prev.Similarity == m.Similarity && prev.CompanyID > m.CompanyID) {
						return 0, fmt.Errorf("probe %s: matches out of order at %d", p.path(), i)
					}
				}
			}
		}
		recall += recallAt(got, p.Want)
	}
	recall /= float64(len(probes))
	if !exact && recall < minANNRecall {
		return recall, fmt.Errorf("recall@%d %.3f below %.2f", probeK, recall, minANNRecall)
	}
	return recall, nil
}
