package serve

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/lda"
	"repro/internal/rng"
	"repro/internal/snapshot"
)

// trainTestModel trains the deterministic fixture model used by the
// cross-format serving tests.
func trainTestModel(t *testing.T) *lda.Model {
	t.Helper()
	c := testCorpus()
	m, err := lda.TrainContext(context.Background(),
		lda.Config{Topics: 2, V: c.M(), BurnIn: 10, Iterations: 20, SampleLag: 5},
		c.Sets(), nil, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// serverOverModelFile stands a Server over the model snapshot at path,
// loading it exactly the way ibserve does (lda.LoadFile → mmap for v2,
// legacy gob decode for v1; model Close wired into the generation).
func serverOverModelFile(t *testing.T, path string) *Server {
	t.Helper()
	m, closeFn, err := lda.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	c := testCorpus()
	reps := m.Representations(c.Sets(), rng.New(7))
	ix, err := core.NewIndex(c, reps, core.Cosine)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Loaded{Index: ix, Model: m, Close: closeFn}, nil, Config{Quiet: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func fetch(t *testing.T, ts *httptest.Server, method, path, body string) (int, string) {
	t.Helper()
	var resp *http.Response
	var err error
	if method == http.MethodGet {
		resp, err = ts.Client().Get(ts.URL + path)
	} else {
		resp, err = ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(body))
	}
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(raw)
}

// TestV1V2ServeByteIdentical pins the fleet-compatibility acceptance
// criterion: an LDA model saved as IBSNAP v2 (mmap-served) answers every
// query endpoint byte-identically to the same model loaded from legacy v1
// gob.
func TestV1V2ServeByteIdentical(t *testing.T) {
	m := trainTestModel(t)
	dir := t.TempDir()
	v1path := filepath.Join(dir, "model_v1.ibsnap")
	v2path := filepath.Join(dir, "model_v2.ibsnap")
	if err := snapshot.Atomic(v1path, m.SaveV1); err != nil {
		t.Fatal(err)
	}
	if err := snapshot.Atomic(v2path, m.Save); err != nil {
		t.Fatal(err)
	}

	sV1 := serverOverModelFile(t, v1path)
	sV2 := serverOverModelFile(t, v2path)
	if !sV2.cur.Load().model.Phi.Frozen() {
		t.Fatal("v2 server is not serving from a frozen (mapping-aliased) phi")
	}
	if sV1.cur.Load().model.Phi.Frozen() {
		t.Fatal("v1 server unexpectedly froze its phi")
	}
	tsV1 := httptest.NewServer(sV1.Handler())
	defer tsV1.Close()
	tsV2 := httptest.NewServer(sV2.Handler())
	defer tsV2.Close()

	queries := []struct {
		method, path, body string
	}{
		{http.MethodGet, "/v1/similar/7?k=5", ""},
		{http.MethodGet, "/v1/similar/0?k=3&country=US", ""},
		{http.MethodGet, "/v1/recommend/12?peers=10", ""},
		{http.MethodPost, "/v1/whitespace", `{"clients":[1,5,9],"k":5}`},
		{http.MethodPost, "/v1/infer", `{"owned":[0,4,7],"k":5}`},
	}
	for _, q := range queries {
		st1, body1 := fetch(t, tsV1, q.method, q.path, q.body)
		st2, body2 := fetch(t, tsV2, q.method, q.path, q.body)
		if st1 != http.StatusOK || st2 != http.StatusOK {
			t.Fatalf("%s %s: status v1=%d v2=%d", q.method, q.path, st1, st2)
		}
		if body1 != body2 {
			t.Fatalf("%s %s: responses differ\nv1: %s\nv2: %s", q.method, q.path, body1, body2)
		}
	}
}

// TestReloadV2UsesMmapNotDecode pins the other tentpole acceptance
// criterion: /admin/reload of a v2 snapshot goes through the mmap loader —
// O(sections), no payload re-decode — and installs a mapping-aliased model.
func TestReloadV2UsesMmapNotDecode(t *testing.T) {
	m := trainTestModel(t)
	dir := t.TempDir()
	v2path := filepath.Join(dir, "model.ibsnap")
	if err := snapshot.Atomic(v2path, m.Save); err != nil {
		t.Fatal(err)
	}
	s := serverOverModelFile(t, v2path)
	s.load = func(context.Context) (Loaded, error) {
		mm, closeFn, err := lda.LoadFile(v2path)
		if err != nil {
			return Loaded{}, err
		}
		c := testCorpus()
		reps := mm.Representations(c.Sets(), rng.New(7))
		ix, err := core.NewIndex(c, reps, core.Cosine)
		if err != nil {
			_ = closeFn()
			return Loaded{}, err
		}
		return Loaded{Index: ix, Model: mm, Close: closeFn}, nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	mmap0 := counterValue("snapshot_mmap_loads_total")
	fallback0 := counterValue("snapshot_map_fallback_loads_total")
	if code, body := fetch(t, ts, http.MethodPost, "/admin/reload", ""); code != http.StatusOK {
		t.Fatalf("reload: %d %s", code, body)
	}
	mmapDelta := counterValue("snapshot_mmap_loads_total") - mmap0
	fallbackDelta := counterValue("snapshot_map_fallback_loads_total") - fallback0
	if mmapDelta+fallbackDelta != 1 {
		t.Fatalf("reload opened %d mmap + %d fallback containers, want exactly 1 total", mmapDelta, fallbackDelta)
	}
	st := s.cur.Load()
	if !st.model.Phi.Frozen() {
		t.Fatal("reloaded generation is not serving from a frozen (mapping-aliased) phi")
	}
	// A post-reload query must serve fine off the new mapping.
	if code, _ := fetch(t, ts, http.MethodGet, "/v1/similar/3?k=3", ""); code != http.StatusOK {
		t.Fatalf("post-reload query: %d", code)
	}
}

// TestGenerationCloseDeferredUntilRelease pins the mapped-generation
// lifetime rule: a reload must not close (munmap) the old generation while
// a request still holds it; the close runs when the last holder releases.
func TestGenerationCloseDeferredUntilRelease(t *testing.T) {
	var closed atomic.Int32
	s, ix, m := newTestServer(t, Config{})
	// Rebuild the initial generation with a close recorder.
	first := &state{ix: ix, model: m, cache: newLRU(16), gen: 1,
		close: func() error { closed.Add(1); return nil }}
	first.refs.Store(1)
	s.cur.Store(first)
	s.load = func(context.Context) (Loaded, error) {
		return Loaded{Index: ix, Model: m}, nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Simulate an in-flight request: take a reference like the query closure does.
	held := s.current()
	if held != first {
		t.Fatal("current() did not return the installed generation")
	}

	if code, body := fetch(t, ts, http.MethodPost, "/admin/reload", ""); code != http.StatusOK {
		t.Fatalf("reload: %d %s", code, body)
	}
	if got := closed.Load(); got != 0 {
		t.Fatalf("old generation closed %d times while a request still held it", got)
	}
	// The request finishes: the deferred close must fire now, exactly once.
	held.release()
	if got := closed.Load(); got != 1 {
		t.Fatalf("old generation closed %d times after final release, want 1", got)
	}
	// A dead generation must refuse new references (the use-after-munmap
	// guard), while the live one keeps serving.
	if first.acquire() {
		t.Fatal("acquire succeeded on a closed generation")
	}
	if code, _ := fetch(t, ts, http.MethodGet, "/v1/similar/1?k=2", ""); code != http.StatusOK {
		t.Fatalf("query after generation swap: %d", code)
	}
}

// TestServerCloseReleasesGeneration covers shutdown: Close drops the
// current generation's birth reference (unmapping a v2 model) and is safe
// to call twice.
func TestServerCloseReleasesGeneration(t *testing.T) {
	var closed atomic.Int32
	s, ix, m := newTestServer(t, Config{})
	gen := &state{ix: ix, model: m, cache: newLRU(16), gen: 1,
		close: func() error { closed.Add(1); return nil }}
	gen.refs.Store(1)
	s.cur.Store(gen)
	s.Close()
	s.Close()
	if got := closed.Load(); got != 1 {
		t.Fatalf("generation closed %d times across double Close, want 1", got)
	}
}
