package corpus

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/par"
	"repro/internal/rng"
)

// referenceReadJSONL is the single-goroutine line loop ReadJSONL replaced,
// kept as the oracle for the batched decoder: same checks, same order, same
// messages.
func referenceReadJSONL(r io.Reader) (*Corpus, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("corpus: reading header: %w", err)
		}
		return nil, fmt.Errorf("corpus: empty file")
	}
	var hdr jsonHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return nil, fmt.Errorf("corpus: parsing header: %w", err)
	}
	if hdr.Format != formatID {
		return nil, fmt.Errorf("corpus: unknown format %q", hdr.Format)
	}
	def := DefaultCatalog()
	cats := make([]Category, len(hdr.Categories))
	for i, name := range hdr.Categories {
		if id := def.IDByName(name); id >= 0 {
			cats[i] = def.Categories[id]
		} else {
			cats[i] = Category{Name: name}
		}
	}
	catalog := NewCatalog(cats)
	var companies []Company
	seen := make(map[int]int)
	line := 1
	for sc.Scan() {
		line++
		var jc jsonCompany
		if err := json.Unmarshal(sc.Bytes(), &jc); err != nil {
			return nil, fmt.Errorf("corpus: line %d: %w", line, err)
		}
		if jc.ID < 0 {
			return nil, fmt.Errorf("corpus: line %d: negative company id %d", line, jc.ID)
		}
		if first, dup := seen[jc.ID]; dup {
			return nil, fmt.Errorf("corpus: line %d: duplicate company id %d (first seen on line %d)", line, jc.ID, first)
		}
		seen[jc.ID] = line
		co := Company{
			ID: jc.ID, Name: jc.Name, DUNS: jc.DUNS, Country: jc.Country,
			SIC2: jc.SIC2, Employees: jc.Employees, RevenueM: jc.RevenueM,
		}
		for _, a := range jc.Acquisitions {
			id := catalog.IDByName(a.Category)
			if id < 0 {
				return nil, fmt.Errorf("corpus: line %d: unknown category %q", line, a.Category)
			}
			m, err := ParseMonth(a.First)
			if err != nil {
				return nil, fmt.Errorf("corpus: line %d: %w", line, err)
			}
			co.Acquisitions = append(co.Acquisitions, Acquisition{Category: id, First: m})
		}
		co.SortAcquisitions()
		companies = append(companies, co)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("corpus: scanning: %w", err)
	}
	return &Corpus{Catalog: catalog, Companies: companies}, nil
}

// randomCorpusLines writes a seeded random corpus of n companies and
// returns its lines (header first, no trailing newlines). Ids are a sparse
// shuffled set and install bases are written unsorted, so the decoder's
// sort and the duplicate map both do real work.
func randomCorpusLines(t testing.TB, n int, seed int64) []string {
	t.Helper()
	g := rng.New(seed)
	cat := DefaultCatalog()
	perm := g.Perm(3 * n)
	companies := make([]Company, n)
	for i := range companies {
		co := Company{
			ID: perm[i], Name: fmt.Sprintf("co-%d", i), DUNS: fmt.Sprint(100000 + g.Intn(900000)),
			Country: []string{"US", "DE", "FR", "GB"}[g.Intn(4)], SIC2: 1 + g.Intn(89),
			Employees: g.Intn(5000), RevenueM: float64(g.Intn(100000)) / 100,
		}
		for k := g.Intn(5); k > 0; k-- {
			co.Acquisitions = append(co.Acquisitions, Acquisition{
				Category: g.Intn(cat.Size()), First: MonthOf(1990+g.Intn(26), 1+g.Intn(12)),
			})
		}
		companies[i] = co
	}
	var buf bytes.Buffer
	if err := (&Corpus{Catalog: cat, Companies: companies}).WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
}

// idOf returns the company id of a well-formed company line.
func idOf(t testing.TB, line string) int {
	t.Helper()
	var jc jsonCompany
	if err := json.Unmarshal([]byte(line), &jc); err != nil {
		t.Fatal(err)
	}
	return jc.ID
}

// checkWorkersAgree reads data at several worker counts and requires every
// result to equal the reference loop's: the same *Corpus, or the same error
// text. It returns the reference error.
func checkWorkersAgree(t *testing.T, data []byte) error {
	t.Helper()
	want, wantErr := referenceReadJSONL(bytes.NewReader(data))
	defer par.SetWorkers(0)
	for _, w := range []int{1, 2, 4, 7} {
		par.SetWorkers(w)
		got, err := ReadJSONL(bytes.NewReader(data))
		switch {
		case (err == nil) != (wantErr == nil):
			t.Fatalf("workers=%d: error %v, reference error %v", w, err, wantErr)
		case err != nil && err.Error() != wantErr.Error():
			t.Fatalf("workers=%d: error %q, reference %q", w, err, wantErr)
		case err == nil && !reflect.DeepEqual(got, want):
			t.Fatalf("workers=%d: corpus differs from the reference decode", w)
		}
	}
	return wantErr
}

// TestReadJSONLWorkersIdentical pins the batched decoder to the sequential
// reference over random corpora several batches long, clean and with
// injected faults, at workers 1, 2, 4 and 7: the same corpus, or the same
// first error with the same line number.
func TestReadJSONLWorkersIdentical(t *testing.T) {
	const n = 4*readBatch + 321 // past one workers=1 window, a short last batch
	join := func(lines []string) []byte { return []byte(strings.Join(lines, "\n") + "\n") }
	// Company line i of the file is lines[i]; its line number is i+1.
	batchLine := func(b, off int) int { return 1 + b*readBatch + off } // index into lines

	base := randomCorpusLines(t, n, 1)
	g := rng.New(101)
	fresh := 10 * n // ids the generator never draws
	cases := []struct {
		name     string
		edit     func(lines []string) []string
		wantLine int // 0: the file loads; -1: it fails; else the line the error names
	}{
		{"clean", func(l []string) []string { return l }, 0},
		{"clean-exact-batches", func(l []string) []string { return l[:1+4*readBatch] }, 0},
		{"header-only", func(l []string) []string { return l[:1] }, 0},
		{"bad-json", func(l []string) []string {
			i := 1 + g.Intn(n)
			l[i] = `{"id":12,"name":`
			return l
		}, -1},
		{"negative-id", func(l []string) []string {
			i := 1 + g.Intn(n)
			l[i] = `{"id":-3,"name":"x"}`
			return l
		}, -1},
		{"unknown-category", func(l []string) []string {
			i := 1 + g.Intn(n)
			l[i] = fmt.Sprintf(`{"id":%d,"acquisitions":[{"category":"no_such","first":"2001-01"}]}`, fresh)
			return l
		}, -1},
		{"bad-month", func(l []string) []string {
			i := 1 + g.Intn(n)
			l[i] = fmt.Sprintf(`{"id":%d,"acquisitions":[{"category":"OS","first":"2001-13"}]}`, fresh)
			return l
		}, -1},
		{"duplicate-across-batches", func(l []string) []string {
			src, dst := batchLine(0, readBatch-1), batchLine(1, 0)
			l[dst] = l[src]
			return l
		}, batchLine(1, 0) + 1},
		{"duplicate-and-late-error-same-line", func(l []string) []string {
			src, dst := batchLine(0, 5), batchLine(2, 7)
			l[dst] = fmt.Sprintf(`{"id":%d,"acquisitions":[{"category":"no_such","first":"2001-01"}]}`, idOf(t, l[src]))
			return l
		}, batchLine(2, 7) + 1},
		{"batch2-parse-error-hides-later-duplicate", func(l []string) []string {
			bad := batchLine(1, 100)
			l[bad] = `{not json`
			l[batchLine(1, 200)] = l[batchLine(0, 3)] // duplicate after the error, same batch
			l[batchLine(3, 0)] = l[batchLine(0, 4)]   // duplicate in a later batch
			return l
		}, batchLine(1, 100) + 1},
		{"duplicate-before-batch2-parse-error", func(l []string) []string {
			l[batchLine(1, 50)] = l[batchLine(0, 3)]
			l[batchLine(1, 100)] = `{not json`
			return l
		}, batchLine(1, 50) + 1},
		{"empty-line", func(l []string) []string {
			l[batchLine(2, 0)] = ""
			return l
		}, batchLine(2, 0) + 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			lines := tc.edit(append([]string(nil), base...))
			err := checkWorkersAgree(t, join(lines))
			switch {
			case tc.wantLine == 0 && err != nil:
				t.Fatalf("clean corpus rejected: %v", err)
			case tc.wantLine != 0 && err == nil:
				t.Fatal("faulty corpus accepted")
			case tc.wantLine > 0 && !strings.Contains(err.Error(), fmt.Sprintf("line %d:", tc.wantLine)):
				t.Fatalf("error %q does not name line %d", err, tc.wantLine)
			}
		})
	}

	// Random multi-fault files: up to four faults of any kind anywhere.
	faults := []func(l []string, i int, g *rng.RNG) string{
		func(l []string, i int, g *rng.RNG) string { return l[i][:len(l[i])/2] },
		func(l []string, i int, g *rng.RNG) string { return `{"id":-1}` },
		func(l []string, i int, g *rng.RNG) string { return l[1+g.Intn(len(l)-1)] },
		func(l []string, i int, g *rng.RNG) string { return strings.Replace(l[i], `"first":"`, `"first":"x`, 1) },
		func(l []string, i int, g *rng.RNG) string {
			return strings.Replace(l[i], `"category":"`, `"category":"z`, 1)
		},
	}
	for seed := int64(10); seed < 14; seed++ {
		g := rng.New(seed)
		lines := randomCorpusLines(t, readBatch+g.Intn(3*readBatch), seed)
		for k := g.Intn(5); k > 0; k-- {
			i := 1 + g.Intn(len(lines)-1)
			lines[i] = faults[g.Intn(len(faults))](lines, i, g)
		}
		t.Run(fmt.Sprintf("random%d", seed), func(t *testing.T) {
			checkWorkersAgree(t, []byte(strings.Join(lines, "\n")))
		})
	}
}
