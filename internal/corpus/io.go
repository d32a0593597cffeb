package corpus

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"

	"repro/internal/par"
	"repro/internal/snapshot"
)

// jsonCompany is the JSONL wire format for one company.
type jsonCompany struct {
	ID           int               `json:"id"`
	Name         string            `json:"name"`
	DUNS         string            `json:"duns"`
	Country      string            `json:"country"`
	SIC2         int               `json:"sic2"`
	Employees    int               `json:"employees"`
	RevenueM     float64           `json:"revenue_m"`
	Acquisitions []jsonAcquisition `json:"acquisitions"`
}

type jsonAcquisition struct {
	Category string `json:"category"` // by name, so files are self-describing
	First    string `json:"first"`    // YYYY-MM
}

// jsonHeader is the first line of a corpus JSONL file.
type jsonHeader struct {
	Format     string   `json:"format"` // "installbase-corpus/v1"
	Categories []string `json:"categories"`
}

const formatID = "installbase-corpus/v1"

// WriteJSONL streams the corpus to w: a header line with the catalog,
// then one JSON object per company.
func (c *Corpus) WriteJSONL(w io.Writer) error {
	jw, err := NewJSONLWriter(w, c.Catalog)
	if err != nil {
		return err
	}
	for i := range c.Companies {
		if err := jw.Write(&c.Companies[i]); err != nil {
			return err
		}
	}
	return jw.Flush()
}

// ReadJSONL loads a corpus written by WriteJSONL. Unknown category names
// are an error; the catalog is reconstructed against the default catalog's
// metadata when names match, otherwise bare categories are created.
//
// Company lines are decoded in parallel: the scanner cuts them into
// fixed-size batches, a window of par.Workers()*4 batches is decoded with
// par.ForEach (JSON, category lookup, month parsing, acquisition sort), and
// the window is then merged in line order on the calling goroutine, which
// is where the duplicate-id check runs. Each batch stops at its first
// failing line, and the merge reports the lowest failing line, so the
// result — corpus or error text, line number included — is the same at any
// worker count. Memory beyond the corpus itself is bounded by the window.
func ReadJSONL(r io.Reader) (*Corpus, error) {
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
	seen := make(map[int]int) // company ID -> line it first appeared on
	window := make([]lineBatch, par.Workers()*4)
	line := 1 // lines consumed so far, header included
	for done := false; !done; {
		// Fill the window from the scanner; the last batch of the file
		// comes up short (possibly empty).
		nb := 0
		for ; nb < len(window) && !done; nb++ {
			b := &window[nb]
			b.reset(line + 1)
			for len(b.ends) < readBatch && sc.Scan() {
				b.add(sc.Bytes())
			}
			line += len(b.ends)
			done = len(b.ends) < readBatch
		}
		// Decode every batch straight into its slots of the result, then
		// merge in line order.
		off := len(companies)
		companies = slices.Grow(companies, line-1-off)[:line-1]
		for i := 0; i < nb; i++ {
			window[i].out = companies[off : off+len(window[i].ends)]
			off += len(window[i].ends)
		}
		// Tasks keep their errors in their batch for the ordered merge, so
		// ForEach itself cannot fail.
		_ = par.ForEach(context.Background(), nb, func(i int) error {
			window[i].decode(catalog)
			return nil
		})
		for i := 0; i < nb; i++ {
			if err := window[i].merge(seen); err != nil {
				return nil, err
			}
			window[i].out = nil // don't pin a backing array a later Grow outgrows
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("corpus: scanning: %w", err)
	}
	return &Corpus{Catalog: catalog, Companies: companies}, nil
}

// readBatch is the number of company lines one ReadJSONL decode task
// handles.
const readBatch = 1024

// lineBatch is one ReadJSONL decode task: a run of consecutive company
// lines, copied out of the scanner's buffer, and the result slots they
// decode into.
type lineBatch struct {
	first int       // line number of the batch's first line
	buf   []byte    // the lines' bytes, back to back
	ends  []int     // end offset in buf of each line
	out   []Company // one result slot per line
	bad   int       // index of the first failing line; len(ends) when none fails
	err   error     // the first failing line's error
	late  bool      // err came after the id decoded, so that line's duplicate check comes first
}

func (b *lineBatch) reset(first int) {
	b.first, b.buf, b.ends = first, b.buf[:0], b.ends[:0]
}

func (b *lineBatch) add(line []byte) {
	b.buf = append(b.buf, line...)
	b.ends = append(b.ends, len(b.buf))
}

// decode fills b.out up to the first failing line.
func (b *lineBatch) decode(catalog *Catalog) {
	b.bad, b.err, b.late = len(b.ends), nil, false
	start := 0
	for i, end := range b.ends {
		late, err := decodeCompany(b.buf[start:end], catalog, &b.out[i])
		if err != nil {
			b.bad, b.late = i, late
			b.err = fmt.Errorf("corpus: line %d: %w", b.first+i, err)
			return
		}
		start = end
	}
}

// merge runs the duplicate-id check over the decoded lines in order and
// returns the batch's first error: a duplicate, or the line's own failure.
func (b *lineBatch) merge(seen map[int]int) error {
	for i := 0; i < len(b.ends); i++ {
		if i == b.bad && !b.late {
			return b.err
		}
		line, id := b.first+i, b.out[i].ID
		if first, dup := seen[id]; dup {
			return fmt.Errorf("corpus: line %d: duplicate company id %d (first seen on line %d)", line, id, first)
		}
		seen[id] = line
		if i == b.bad {
			return b.err
		}
	}
	return nil
}

// decodeCompany decodes one company line into co. late reports that the
// failure came after the company's id decoded and passed its own check.
func decodeCompany(data []byte, catalog *Catalog, co *Company) (late bool, err error) {
	var jc jsonCompany
	if err := json.Unmarshal(data, &jc); err != nil {
		return false, err
	}
	if jc.ID < 0 {
		return false, fmt.Errorf("negative company id %d", jc.ID)
	}
	*co = Company{
		ID: jc.ID, Name: jc.Name, DUNS: jc.DUNS, Country: jc.Country,
		SIC2: jc.SIC2, Employees: jc.Employees, RevenueM: jc.RevenueM,
	}
	for _, a := range jc.Acquisitions {
		id := catalog.IDByName(a.Category)
		if id < 0 {
			return true, fmt.Errorf("unknown category %q", a.Category)
		}
		m, err := ParseMonth(a.First)
		if err != nil {
			return true, err
		}
		co.Acquisitions = append(co.Acquisitions, Acquisition{Category: id, First: m})
	}
	co.SortAcquisitions()
	return false, nil
}

// JSONLWriter streams companies to a JSONL corpus file without holding the
// corpus in memory (paired with datagen's streaming generation for the
// paper's 860k-company scale).
type JSONLWriter struct {
	catalog *Catalog
	bw      *bufio.Writer
	enc     *json.Encoder
}

// NewJSONLWriter writes the header and returns a streaming writer.
func NewJSONLWriter(w io.Writer, catalog *Catalog) (*JSONLWriter, error) {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	names := make([]string, catalog.Size())
	for i, cat := range catalog.Categories {
		names[i] = cat.Name
	}
	if err := enc.Encode(jsonHeader{Format: formatID, Categories: names}); err != nil {
		return nil, fmt.Errorf("corpus: writing header: %w", err)
	}
	return &JSONLWriter{catalog: catalog, bw: bw, enc: enc}, nil
}

// Write appends one company record.
func (w *JSONLWriter) Write(co *Company) error {
	jc := jsonCompany{
		ID: co.ID, Name: co.Name, DUNS: co.DUNS, Country: co.Country,
		SIC2: co.SIC2, Employees: co.Employees, RevenueM: co.RevenueM,
	}
	for _, a := range co.Acquisitions {
		jc.Acquisitions = append(jc.Acquisitions, jsonAcquisition{
			Category: w.catalog.Name(a.Category),
			First:    a.First.String(),
		})
	}
	if err := w.enc.Encode(jc); err != nil {
		return fmt.Errorf("corpus: writing company %d: %w", co.ID, err)
	}
	return nil
}

// Flush drains buffered output; call it once after the last Write.
func (w *JSONLWriter) Flush() error { return w.bw.Flush() }

// SaveFile writes the corpus as JSONL to path. The write is atomic: the
// data lands in a temp file that is fsynced and renamed over path, so a
// crash mid-write never leaves a truncated corpus at the destination.
func (c *Corpus) SaveFile(path string) error {
	return snapshot.Atomic(path, c.WriteJSONL)
}

// LoadFile reads a JSONL corpus from path.
func LoadFile(path string) (*Corpus, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadJSONL(f)
}
