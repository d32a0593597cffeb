package lda

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"testing"

	"repro/internal/mat"
	"repro/internal/par"
	"repro/internal/rng"
)

// randomModel returns a model with k topics over v words and random
// normalized phi rows, without training.
func randomModel(k, v, iters int, g *rng.RNG) *Model {
	phi := mat.New(k, v)
	for z := 0; z < k; z++ {
		copy(phi.Row(z), g.SymmetricDirichlet(v, 0.5))
	}
	return &Model{K: k, V: v, Alpha: 1 / float64(k), Beta: 0.01, Phi: phi, InferIters: iters}
}

// randomDocs draws n documents of 0..maxLen tokens over v words; about one
// in eight is empty.
func randomDocs(n, v, maxLen int, g *rng.RNG) [][]int {
	docs := make([][]int, n)
	for d := range docs {
		if g.Intn(8) == 0 {
			continue
		}
		doc := make([]int, 1+g.Intn(maxLen))
		for i := range doc {
			doc[i] = g.Intn(v)
		}
		docs[d] = doc
	}
	return docs
}

// TestSkipInferenceMatchesInferTheta pins the replay helper to the
// inference loop: for random documents and models, both leave the
// generator in exactly the same state.
func TestSkipInferenceMatchesInferTheta(t *testing.T) {
	g := rng.New(3)
	for trial := 0; trial < 200; trial++ {
		m := randomModel(1+g.Intn(9), 1+g.Intn(40), g.Intn(12), g)
		doc := randomDocs(1, m.V, 30, g)[0]
		seed := g.Int63()
		a, b := rng.New(seed), rng.New(seed)
		m.InferTheta(doc, a)
		if _, ok := m.skipInference(doc, b); !ok {
			t.Fatalf("trial %d: in-vocabulary document rejected", trial)
		}
		if a.State() != b.State() {
			t.Fatalf("trial %d (K=%d, iters=%d, len=%d): replay state differs from InferTheta's",
				trial, m.K, m.InferIters, len(doc))
		}
	}

	// A generator whose next source output is all ones: Intn(3) rejects
	// that draw (Int31 = 2^31-1 lies above its acceptance bound) and draws
	// again, and the replay must follow.
	m := randomModel(3, 10, 5, g)
	st := stateBeforeOutput(^uint64(0))
	a, _ := rng.FromState(st)
	b, _ := rng.FromState(st)
	intn, _ := rng.FromState(st)
	twoSteps, _ := rng.FromState(st)
	intn.Intn(3)
	twoSteps.Int63()
	twoSteps.Int63()
	if intn.State() != twoSteps.State() {
		t.Fatal("crafted state did not make Intn(3) redraw")
	}
	m.InferTheta([]int{4, 2}, a)
	m.skipInference([]int{4, 2}, b)
	if a.State() != b.State() {
		t.Fatal("replay diverges from InferTheta across an Intn rejection redraw")
	}
}

// stateBeforeOutput returns a generator state whose next source output is
// out, by inverting xoshiro256**'s output function rotl(s1*5, 7)*9 (both
// multipliers are odd, so invertible mod 2^64).
func stateBeforeOutput(out uint64) [4]uint64 {
	inv := func(a uint64) uint64 {
		x := a // Newton's iteration: correct bits double each step
		for i := 0; i < 6; i++ {
			x *= 2 - a*x
		}
		return x
	}
	x := out * inv(9)
	s1 := (x>>7 | x<<57) * inv(5)
	return [4]uint64{0x9e3779b97f4a7c15, s1, 0xbf58476d1ce4e5b9, 0x94d049bb133111eb}
}

// TestRepresentationsWorkersGobIdentical checks the pipelined fold-in
// against the sequential InferTheta loop at several worker counts: the
// matrix is gob-byte-identical and the caller's generator ends in the same
// state. K is not a power of two (so Intn takes its rejection path), some
// documents are empty, and the corpus spans more than one replay window at
// one, two and four workers.
func TestRepresentationsWorkersGobIdentical(t *testing.T) {
	g := rng.New(17)
	m := randomModel(5, 38, 6, g)
	docs := randomDocs(20000, m.V, 9, g)
	encode := func(b *mat.Matrix) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(b); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	ref := rng.New(99)
	want := mat.New(len(docs), m.K)
	for d, doc := range docs {
		copy(want.Row(d), m.InferTheta(doc, ref))
	}
	wantBytes := encode(want)

	defer par.SetWorkers(0)
	for _, w := range []int{1, 2, 4, 7} {
		par.SetWorkers(w)
		gw := rng.New(99)
		got := m.Representations(docs, gw)
		if !bytes.Equal(encode(got), wantBytes) {
			t.Fatalf("workers=%d: representations differ from the sequential fold-in", w)
		}
		if gw.State() != ref.State() {
			t.Fatalf("workers=%d: caller RNG state differs after Representations", w)
		}
	}
}

// TestRepresentationsPanicsOnCaller checks that a bad token, found by the
// replay, and a panic inside a fold-in worker both surface on the calling
// goroutine with the value the sequential loop panics with.
func TestRepresentationsPanicsOnCaller(t *testing.T) {
	g := rng.New(5)
	m := randomModel(3, 10, 4, g)
	docs := randomDocs(6000, m.V, 6, g)
	panicValue := func(m *Model, docs [][]int) (v any) {
		defer func() { v = recover() }()
		m.Representations(docs, rng.New(1))
		return nil
	}
	defer par.SetWorkers(0)
	for _, w := range []int{1, 4} {
		par.SetWorkers(w)

		bad := append([][]int(nil), docs...)
		bad[5000] = []int{1, 10, 2}
		if got, want := panicValue(m, bad), fmt.Sprintf("lda: token %d outside vocabulary [0,%d)", 10, m.V); got != want {
			t.Fatalf("workers=%d: bad token panicked with %v, want %q", w, got, want)
		}

		// A word whose phi column is NaN makes Categorical panic inside
		// the fold-in task.
		nan := &Model{K: m.K, V: m.V, Alpha: m.Alpha, Beta: m.Beta, Phi: m.Phi.Clone(), InferIters: m.InferIters}
		for z := 0; z < nan.K; z++ {
			nan.Phi.Set(z, 7, math.NaN())
		}
		nanDocs := make([][]int, len(docs))
		nanDocs[4500] = []int{7}
		if got := panicValue(nan, nanDocs); got != "rng: Categorical weights must have positive sum" {
			t.Fatalf("workers=%d: fold-in panic surfaced as %v", w, got)
		}
	}
}
