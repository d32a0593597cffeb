package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"sort"
	"time"

	"repro/internal/ann"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/lda"
	"repro/internal/rng"
)

const (
	corpusSeed = 1   // ibgen and ibtrain seed of every prepared corpus
	serveSeed  = 1   // ibserve -seed: representation inference and ANN clustering
	topics     = 3   // LDA topics
	probeCount = 200 // /v1/similar probes in the output check
	probeK     = 10
)

// probe is one /v1/similar query of the output check with the exact answer
// an in-process core.Index gives for it.
type probe struct {
	ID      int         `json:"id"`
	Filter  core.Filter `json:"filter"`
	Want    []int       `json:"want"`
	WantSim []float64   `json:"want_sim"`
}

func (p probe) path() string {
	return fmt.Sprintf("/v1/similar/%d?k=%d%s", p.ID, probeK, filterQuery(p.Filter))
}

// prepared is a cached corpus: files under dir plus the decoded metadata.
type prepared struct {
	dir    string
	meta   corpusMeta
	probes []probe
}

func (p *prepared) corpusPath() string { return filepath.Join(p.dir, "corpus.jsonl") }
func (p *prepared) modelPath() string  { return filepath.Join(p.dir, "lda.gob") }
func (p *prepared) annPath() string    { return filepath.Join(p.dir, "ann.ibsnap") }

// prepare returns the prepared inputs for a corpus of n companies, building
// them on first use: ibgen writes the corpus, ibtrain the model, and an
// in-process load of both (the same path ibserve takes) clusters the ANN
// index snapshot, records the metadata request generation needs, and
// answers the probe set with an exact core.Index. Everything is keyed by
// (size, seed) under data/, so later runs only read it.
func prepare(dataDir, binDir string, n int) (*prepared, error) {
	p := &prepared{dir: filepath.Join(dataDir, fmt.Sprintf("n%d-s%d", n, corpusSeed))}
	if err := readJSON(filepath.Join(p.dir, "meta.json"), &p.meta); err == nil {
		if err := readJSON(filepath.Join(p.dir, "probes.json"), &p.probes); err != nil {
			return nil, err
		}
		return p, nil
	}
	start := time.Now()
	tmp := p.dir + ".tmp"
	if err := os.RemoveAll(tmp); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	tp := &prepared{dir: tmp}
	for _, args := range [][]string{
		{"ibgen", "-companies", fmt.Sprint(n), "-seed", fmt.Sprint(corpusSeed), "-out", tp.corpusPath(), "-stats=false"},
		{"ibtrain", "-model", "lda", "-topics", fmt.Sprint(topics), "-seed", fmt.Sprint(corpusSeed),
			"-corpus", tp.corpusPath(), "-out", tp.modelPath()},
	} {
		cmd := exec.Command(filepath.Join(binDir, args[0]), args[1:]...)
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("preparing %d companies: %s: %w", n, args[0], err)
		}
	}
	if err := indexPrepared(tp); err != nil {
		return nil, fmt.Errorf("preparing %d companies: %w", n, err)
	}
	debug.FreeOSMemory() // the served process, not this one, should hold the corpus
	if err := os.Rename(tmp, p.dir); err != nil {
		return nil, err
	}
	logf("prepared %d companies in %.1fs under %s", n, time.Since(start).Seconds(), p.dir)
	p.meta, p.probes = tp.meta, tp.probes
	return p, nil
}

// indexPrepared loads the prepared corpus and model in-process and writes
// ann.ibsnap, meta.json and probes.json next to them.
func indexPrepared(p *prepared) error {
	c, err := corpus.LoadFile(p.corpusPath())
	if err != nil {
		return err
	}
	m, closeModel, err := lda.LoadFile(p.modelPath())
	if err != nil {
		return err
	}
	defer closeModel()
	reps := m.Representations(c.Sets(), rng.New(serveSeed))
	ix, err := core.NewIndex(c, reps, core.Cosine)
	if err != nil {
		return err
	}
	annIx, err := ann.Build(reps, core.Cosine, ann.BuildConfig{Seed: serveSeed})
	if err != nil {
		return err
	}
	if err := annIx.SaveFile(p.annPath()); err != nil {
		return err
	}

	p.meta = metaOf(c)
	r := rand.New(rand.NewPCG(corpusSeed, 0x70726f6265)) // fixed probe set per corpus
	g := &generator{r: r, meta: p.meta}
	for i := 0; i < probeCount; i++ {
		pr := probe{ID: r.IntN(c.N()), Filter: g.drawFilter()}
		ms, err := ix.TopK(pr.ID, probeK, pr.Filter)
		if err != nil {
			return err
		}
		for _, mt := range ms {
			pr.Want = append(pr.Want, mt.CompanyID)
			pr.WantSim = append(pr.WantSim, mt.Similarity)
		}
		p.probes = append(p.probes, pr)
	}
	if err := writeJSON(filepath.Join(p.dir, "probes.json"), p.probes); err != nil {
		return err
	}
	return writeJSON(filepath.Join(p.dir, "meta.json"), p.meta)
}

func metaOf(c *corpus.Corpus) corpusMeta {
	countries := map[string]bool{}
	sic2 := map[int]bool{}
	for _, co := range c.Companies {
		if co.Country != "" {
			countries[co.Country] = true
		}
		if co.SIC2 != 0 {
			sic2[co.SIC2] = true
		}
	}
	m := corpusMeta{Companies: c.N(), Categories: c.M()}
	for v := range countries {
		m.Countries = append(m.Countries, v)
	}
	sort.Strings(m.Countries)
	for v := range sic2 {
		m.SIC2 = append(m.SIC2, v)
	}
	sort.Ints(m.SIC2)
	return m
}

func readJSON(path string, v any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func writeJSON(path string, v any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
