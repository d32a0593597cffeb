package corpus

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/par"
)

const testHdr = `{"format":"installbase-corpus/v1","categories":["a","b"]}` + "\n"

func TestReadJSONLRejectsDuplicateIDs(t *testing.T) {
	in := testHdr +
		`{"id":7,"name":"x","acquisitions":[]}` + "\n" +
		`{"id":7,"name":"y","acquisitions":[]}` + "\n"
	_, err := ReadJSONL(strings.NewReader(in))
	if err == nil {
		t.Fatal("duplicate company id accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, "line 3") || !strings.Contains(msg, "line 2") {
		t.Fatalf("duplicate error should name both lines, got %q", msg)
	}
}

func TestReadJSONLRejectsNegativeID(t *testing.T) {
	in := testHdr + `{"id":-4,"name":"x"}` + "\n"
	if _, err := ReadJSONL(strings.NewReader(in)); err == nil {
		t.Fatal("negative company id accepted")
	}
}

func TestReadJSONLRejectsOutOfRangeMonth(t *testing.T) {
	in := testHdr + `{"id":1,"acquisitions":[{"category":"a","first":"2001-13"}]}` + "\n"
	if _, err := ReadJSONL(strings.NewReader(in)); err == nil {
		t.Fatal("month 13 accepted")
	}
	in = testHdr + `{"id":1,"acquisitions":[{"category":"a","first":"2001-00"}]}` + "\n"
	if _, err := ReadJSONL(strings.NewReader(in)); err == nil {
		t.Fatal("month 00 accepted")
	}
}

func TestReadJSONLParseErrorNamesLine(t *testing.T) {
	in := testHdr + `{"id":1}` + "\n" + `{not json` + "\n"
	_, err := ReadJSONL(strings.NewReader(in))
	if err == nil {
		t.Fatal("malformed JSON accepted")
	}
	if !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("parse error should carry the line number, got %q", err)
	}
}

func TestSaveFileIsAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "corpus.jsonl")
	c := smallCorpus()
	if err := c.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != c.N() || got.M() != c.M() {
		t.Fatalf("round-trip shape %d/%d, want %d/%d", got.N(), got.M(), c.N(), c.M())
	}
	// No temp litter next to the destination.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("expected only the corpus file, found %d entries", len(entries))
	}
}

func FuzzReadJSONL(f *testing.F) {
	var buf bytes.Buffer
	if err := smallCorpus().WriteJSONL(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // truncated mid-record
	f.Add([]byte(""))
	f.Add([]byte(testHdr))
	f.Add([]byte(testHdr + `{"id":1,"acquisitions":[{"category":"a","first":"2001-13"}]}`))
	f.Add([]byte(testHdr + `{"id":1,"acquisitions":[{"category":"a","first":"0001-05"}]}`))
	f.Add([]byte(testHdr + `{"id":1,"acquisitions":[{"category":"a","first":"2013-05xyz"}]}`))
	f.Add([]byte(testHdr + `{"id":2}` + "\n" + `{"id":2}`))
	f.Add([]byte(`{"format":"installbase-corpus/v1","categories":[]}` + "\n"))
	f.Add([]byte("{not json"))

	f.Fuzz(func(t *testing.T, data []byte) {
		defer par.SetWorkers(0)
		par.SetWorkers(4)
		c4, err4 := ReadJSONL(bytes.NewReader(data))
		par.SetWorkers(1)
		c, err := ReadJSONL(bytes.NewReader(data))
		if err != nil && c != nil {
			t.Fatal("ReadJSONL returned both a corpus and an error")
		}
		// The batched decoder answers the same at any worker count.
		if fmt.Sprint(err) != fmt.Sprint(err4) || !reflect.DeepEqual(c, c4) {
			t.Fatalf("workers=1 and workers=4 disagree: %v vs %v", err, err4)
		}
		if err == nil {
			// Accepted corpora must be internally consistent.
			seen := make(map[int]bool)
			for _, co := range c.Companies {
				if co.ID < 0 || seen[co.ID] {
					t.Fatalf("accepted corpus with bad/duplicate id %d", co.ID)
				}
				seen[co.ID] = true
				for _, a := range co.Acquisitions {
					if a.Category < 0 || a.Category >= c.M() {
						t.Fatalf("accepted acquisition with category %d outside [0,%d)", a.Category, c.M())
					}
				}
			}
		}
	})
}

func TestParseMonthStrict(t *testing.T) {
	good := map[string]Month{
		"1990-01": MonthOf(1990, 1),
		"2013-05": MonthOf(2013, 5),
		"1900-12": MonthOf(1900, 12),
		"2100-01": MonthOf(2100, 1),
	}
	for in, want := range good {
		got, err := ParseMonth(in)
		if err != nil || got != want {
			t.Errorf("ParseMonth(%q) = %v, %v; want %v, nil", in, got, err, want)
		}
	}
	bad := []string{
		"",
		"2013-5",     // month needs two digits
		"13-05",      // year needs four digits
		"2013-05xyz", // trailing garbage (Sscanf used to accept this)
		"2013-05 ",   // trailing space
		" 2013-05",   // leading space
		"2013_05",    // wrong separator
		"2013-13",    // month too large
		"2013-00",    // month zero
		"0001-05",    // implausible year (used to become a huge negative Month)
		"1899-12",    // below MinParseYear
		"2101-01",    // above MaxParseYear
		"-013-05",    // sign instead of digit
		"2013-0a",    // letter in month
		"20a3-05",    // letter in year
	}
	for _, in := range bad {
		if got, err := ParseMonth(in); err == nil {
			t.Errorf("ParseMonth(%q) = %v, accepted; want error", in, got)
		}
	}
}

func TestReadJSONLRejectsImplausibleYear(t *testing.T) {
	in := testHdr + `{"id":1,"acquisitions":[{"category":"a","first":"0001-05"}]}` + "\n"
	_, err := ReadJSONL(strings.NewReader(in))
	if err == nil {
		t.Fatal("year 0001 accepted")
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("month error should carry the line number, got %q", err)
	}
}

func TestReadJSONLRejectsTrailingGarbageMonth(t *testing.T) {
	in := testHdr + `{"id":1,"acquisitions":[{"category":"a","first":"2013-05xyz"}]}` + "\n"
	_, err := ReadJSONL(strings.NewReader(in))
	if err == nil {
		t.Fatal("trailing garbage after YYYY-MM accepted")
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("month error should carry the line number, got %q", err)
	}
}
