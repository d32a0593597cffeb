package core

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"repro/internal/corpus"
	"repro/internal/mat"
	"repro/internal/par"
	"repro/internal/rng"
)

// TestPartitionOfPinned pins the FNV-1a partition hash: shard processes agree
// on ownership only because every build computes the same mapping, so any
// change to these values is a wire-compatibility break.
func TestPartitionOfPinned(t *testing.T) {
	pinned := map[[2]int]int{
		{0, 3}:    1,
		{1, 3}:    0,
		{2, 3}:    0,
		{3, 3}:    2,
		{17, 3}:   2,
		{0, 2}:    1,
		{41, 5}:   3,
		{1000, 7}: 2,
	}
	for in, want := range pinned {
		if got := PartitionOf(in[0], in[1]); got != want {
			t.Errorf("PartitionOf(%d, %d) = %d, want %d (pinned — changing the hash breaks cross-process sharding)",
				in[0], in[1], got, want)
		}
	}
	if PartitionOf(123, 1) != 0 || PartitionOf(123, 0) != 0 {
		t.Error("parts <= 1 must map everything to partition 0")
	}
}

// TestPartitionCoversDisjointly checks the partition is a disjoint cover of
// the id space at several shard counts.
func TestPartitionCoversDisjointly(t *testing.T) {
	for _, parts := range []int{2, 3, 5, 8} {
		counts := make([]int, parts)
		for id := 0; id < 10000; id++ {
			p := PartitionOf(id, parts)
			if p < 0 || p >= parts {
				t.Fatalf("PartitionOf(%d, %d) = %d outside range", id, parts, p)
			}
			counts[p]++
		}
		for p, n := range counts {
			// A uniform hash keeps partitions within a loose band of N/parts.
			if n < 10000/parts/2 || n > 10000*2/parts {
				t.Errorf("parts=%d partition %d holds %d of 10000 ids — badly unbalanced", parts, p, n)
			}
		}
	}
}

func testPartitionIndex(t *testing.T) (*Index, func(part, parts int) *Index) {
	t.Helper()
	cat := corpus.DefaultCatalog()
	m := cat.Size()
	companies := make([]corpus.Company, 60)
	for i := range companies {
		companies[i] = corpus.Company{
			ID: i, Name: fmt.Sprintf("co-%02d", i),
			Country: []string{"US", "DE", "GB"}[i%3], SIC2: 70 + i%4,
			Employees: 10 + i, RevenueM: float64(1 + i%9),
			Acquisitions: []corpus.Acquisition{
				{Category: i % m, First: corpus.Month(i % 12)},
				{Category: (i*7 + 3) % m, First: corpus.Month(i%12 + 1)},
			},
		}
		companies[i].SortAcquisitions()
	}
	c := corpus.New(cat, companies)
	g := rng.New(11)
	reps := mat.New(c.N(), 4)
	for i := 0; i < reps.Rows*reps.Cols; i++ {
		reps.Data[i] = g.Float64()
	}
	full, err := NewIndex(c, reps, Cosine)
	if err != nil {
		t.Fatal(err)
	}
	shard := func(part, parts int) *Index {
		ix, err := NewIndex(c, reps, Cosine)
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.SetPartition(part, parts); err != nil {
			t.Fatal(err)
		}
		return ix
	}
	return full, shard
}

// TestTopKPartition1vs3GobIdentical is the sharded merge contract: the
// per-partition TopK answers, merged under MatchBetter, are gob-byte-
// identical to the unpartitioned answer — at one worker and at four.
func TestTopKPartition1vs3GobIdentical(t *testing.T) {
	full, shard := testPartitionIndex(t)
	const parts = 3
	filters := []Filter{{}, {Country: "US"}, {SIC2: 71}, {MinEmployees: 30}}
	for _, workers := range []int{1, 4} {
		par.SetWorkers(workers)
		for _, f := range filters {
			for _, k := range []int{1, 5, 12} {
				want, err := full.TopK(7, k, f)
				if err != nil {
					t.Fatal(err)
				}
				perShard := make([][]Match, parts)
				for p := 0; p < parts; p++ {
					ms, err := shard(p, parts).TopK(7, k, f)
					if err != nil {
						t.Fatal(err)
					}
					perShard[p] = ms
				}
				got := MergeTopK(perShard, k, MatchBetter)
				if !bytes.Equal(gobBytes(t, want), gobBytes(t, got)) {
					t.Fatalf("workers=%d k=%d filter=%v: merged partition top-k differs from unpartitioned\nwant %v\ngot  %v",
						workers, k, f, want, got)
				}
			}
		}
	}
	par.SetWorkers(4)
}

// TestWhitespacePartitionGobIdentical does the same for white-space scans.
func TestWhitespacePartitionGobIdentical(t *testing.T) {
	full, shard := testPartitionIndex(t)
	const parts = 3
	clients := []int{2, 9, 33}
	want, err := full.Whitespace(clients, 8, Filter{})
	if err != nil {
		t.Fatal(err)
	}
	perShard := make([][]WhitespaceProspect, parts)
	for p := 0; p < parts; p++ {
		ps, err := shard(p, parts).Whitespace(clients, 8, Filter{})
		if err != nil {
			t.Fatal(err)
		}
		perShard[p] = ps
	}
	got := MergeTopK(perShard, 8, ProspectBetter)
	if !bytes.Equal(gobBytes(t, want), gobBytes(t, got)) {
		t.Fatalf("merged partition whitespace differs from unpartitioned\nwant %v\ngot  %v", want, got)
	}
}

// TestRecommendFromPeersMatchesSingleProcess proves the two-phase sharded
// recommendation path: global peers (merged from partitions) scored by
// RecommendFromPeers equal the single-process RecommendFromSimilar.
func TestRecommendFromPeersMatchesSingleProcess(t *testing.T) {
	full, shard := testPartitionIndex(t)
	const parts, peers = 3, 10
	want, err := full.RecommendFromSimilar(4, peers, Filter{})
	if err != nil {
		t.Fatal(err)
	}
	perShard := make([][]Match, parts)
	for p := 0; p < parts; p++ {
		ms, err := shard(p, parts).TopK(4, peers, Filter{})
		if err != nil {
			t.Fatal(err)
		}
		perShard[p] = ms
	}
	merged := MergeTopK(perShard, peers, MatchBetter)
	got, err := full.RecommendFromPeers(4, merged)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gobBytes(t, want), gobBytes(t, got)) {
		t.Fatalf("RecommendFromPeers(merged peers) differs from RecommendFromSimilar\nwant %v\ngot  %v", want, got)
	}
	if _, err := full.RecommendFromPeers(-1, nil); err == nil {
		t.Error("RecommendFromPeers accepted a negative id")
	}
	if _, err := full.RecommendFromPeers(0, []Match{{CompanyID: 10_000}}); err == nil {
		t.Error("RecommendFromPeers accepted an out-of-range peer")
	}
	// Similarities whose sum overflows would score Inf/Inf = NaN strengths.
	huge := []Match{{CompanyID: 1, Similarity: 1e308}, {CompanyID: 1, Similarity: 1e308}}
	if _, err := full.RecommendFromPeers(0, huge); err == nil {
		t.Error("RecommendFromPeers accepted peer similarities summing to +Inf")
	}
}

// TestSetPartitionValidation covers the partition setter edge cases.
func TestSetPartitionValidation(t *testing.T) {
	full, _ := testPartitionIndex(t)
	if err := full.SetPartition(3, 3); err == nil {
		t.Error("SetPartition(3, 3) should fail")
	}
	if err := full.SetPartition(-1, 3); err == nil {
		t.Error("SetPartition(-1, 3) should fail")
	}
	if err := full.SetPartition(0, 1); err != nil {
		t.Errorf("SetPartition(0, 1): %v", err)
	}
	if p, n := full.Partition(); p != 0 || n != 1 {
		t.Errorf("unpartitioned Partition() = %d, %d", p, n)
	}
	if err := full.SetPartition(2, 3); err != nil {
		t.Fatal(err)
	}
	if p, n := full.Partition(); p != 2 || n != 3 {
		t.Errorf("Partition() = %d, %d after SetPartition(2, 3)", p, n)
	}
	if own := full.OwnedCompanies(); own <= 0 || own >= full.Corpus.N() {
		t.Errorf("OwnedCompanies() = %d of %d — partition should own a strict subset", own, full.Corpus.N())
	}
	// A cancelled context still surfaces as an error on a partitioned scan.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := full.TopKContext(ctx, 0, 3, Filter{}); err == nil {
		t.Error("cancelled TopKContext on a partitioned index should fail")
	}
}
