package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"unicode"

	"kqr"
	"kqr/synthetic"
)

// The oracle of /api/reformulate's append encoder: the response structs
// and the reflective json.Marshal + '\n' path the server used before
// bodies were appended straight from the engine's visitor. It lives on
// in tests only, and the encoder must equal it byte for byte.

type reformulateResponse struct {
	Query          []string        `json:"query"`
	CorrectedQuery string          `json:"corrected_query,omitempty"`
	Mend           *kqr.MendResult `json:"mend,omitempty"`
	Suggestions    []suggestion    `json:"suggestions"`
}

type suggestion struct {
	Terms []string `json:"terms"`
	Query string   `json:"query"`
	Score float64  `json:"score"`
}

// oracleReformulate answers /api/reformulate the replaced way: the same
// parameter parsing, then Engine.Reformulate into a suggestion slice
// into a response struct into json.Marshal.
func oracleReformulate(s *Server, q url.Values) (int, []byte) {
	body, err := func() ([]byte, error) {
		query, k, _, err := queryAndK(q, 5, 50)
		if err != nil {
			return nil, err
		}
		mode, err := mendModeParam(q)
		if err != nil {
			return nil, err
		}
		mending := s.mendEnabled()
		if mode == "on" && !mending {
			return nil, badRequest{fmt.Errorf("mend=on requires a mending-enabled engine (start kqr-server with -mend)")}
		}
		terms := query
		var mended *kqr.MendResult
		if mode != "off" && mending {
			res, err := s.eng.Mend(query)
			if err != nil {
				return nil, err
			}
			terms, mended = res.Terms, &res
			if len(terms) == 0 {
				return nil, &kqr.NoKnownTermsError{Query: query, Hints: mended.Hints(3)}
			}
		}
		resp := reformulateResponse{Query: query}
		sugs, err := s.eng.Reformulate(terms, k)
		if err != nil {
			return nil, badRequest{err}
		}
		if mended != nil && (mended.Changed || mode == "on") {
			resp.CorrectedQuery = kqr.Suggestion{Terms: terms}.String()
			resp.Mend = mended
		}
		resp.Suggestions = make([]suggestion, 0, len(sugs))
		for _, sg := range sugs {
			resp.Suggestions = append(resp.Suggestions, suggestion{Terms: sg.Terms, Query: sg.String(), Score: sg.Score})
		}
		return encodeBody(resp)
	}()
	if err != nil {
		return errorResponse(err)
	}
	return http.StatusOK, body
}

// oddCorpus is a small bibliography whose author and venue names need
// everything the encoder escapes: spaces (quoted in "query"), double
// quotes and backslashes (escaped twice, by the query syntax and by
// JSON), <, > and & (HTML-escaped), non-ASCII, U+2028.
func oddCorpus(t *testing.T) *kqr.Dataset {
	t.Helper()
	ds, err := kqr.NewDataset(
		kqr.Table{Name: "venues", PrimaryKey: "vid", Columns: []kqr.Column{
			{Name: "vid", Type: kqr.TypeInt}, {Name: "name", Type: kqr.TypeString, Text: kqr.TextAtomic}}},
		kqr.Table{Name: "papers", PrimaryKey: "pid", Columns: []kqr.Column{
			{Name: "pid", Type: kqr.TypeInt}, {Name: "title", Type: kqr.TypeString, Text: kqr.TextSegmented}, {Name: "vid", Type: kqr.TypeInt}},
			ForeignKeys: []kqr.ForeignKey{{Column: "vid", RefTable: "venues"}}},
		kqr.Table{Name: "authors", PrimaryKey: "aid", Columns: []kqr.Column{
			{Name: "aid", Type: kqr.TypeInt}, {Name: "name", Type: kqr.TypeString, Text: kqr.TextAtomic}}},
		kqr.Table{Name: "writes", Columns: []kqr.Column{{Name: "aid", Type: kqr.TypeInt}, {Name: "pid", Type: kqr.TypeInt}},
			ForeignKeys: []kqr.ForeignKey{{Column: "aid", RefTable: "authors"}, {Column: "pid", RefTable: "papers"}}},
	)
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	venues := []string{`Très Grandes Bases`, `R&D <Symposium>`, `データベース 研究会`, "line\u2028separated"}
	authors := []string{`José "Pepe" García`, `Jürgen Müller-Lüdenscheidt`, `back\slash o'brien`, `王 小明`, `a<b>&c`, `Łukasz Żółć`, `quo"te`, `plain name`}
	for i, v := range venues {
		must(ds.Insert("venues", i+1, v))
	}
	for i, a := range authors {
		must(ds.Insert("authors", i+1, a))
	}
	titles := []string{
		"probabilistic query evaluation", "uncertain data management", "ranking uncertain data", "probabilistic ranking queries",
		"indexing résumé données", "query évaluation données incertaines", "ranking données", "uncertain query indexing",
		"probabilistic données management", "évaluation ranking indexing", "data résumé management", "incertaines query data",
	}
	for i, title := range titles {
		must(ds.Insert("papers", i+1, title, i%len(venues)+1))
		must(ds.Insert("writes", i%len(authors)+1, i+1))
		must(ds.Insert("writes", (i*3+1)%len(authors)+1, i+1))
	}
	return ds
}

// sweepQueries derives ≥ n query strings from a vocabulary: clean ones of
// 1–6 terms (multi-word terms quoted as Suggestion.String quotes them),
// the same with one term misspelled, with two terms run together, and a
// few no term of which is anywhere near the vocabulary.
func sweepQueries(vocab []string, n int) []string {
	rng := rand.New(rand.NewSource(20))
	var out []string
	for len(out) < n {
		terms := make([]string, 1+rng.Intn(6))
		for i := range terms {
			terms[i] = vocab[rng.Intn(len(vocab))]
		}
		switch len(out) % 4 {
		case 1: // typo: drop one letter of one term
			i := rng.Intn(len(terms))
			if r := []rune(terms[i]); len(r) > 3 {
				at := 1 + rng.Intn(len(r)-2)
				terms[i] = string(r[:at]) + string(r[at+1:])
			}
		case 2: // run-on: two single-word terms lose their space
			if len(terms) > 1 && !strings.ContainsFunc(terms[0]+terms[1], unicode.IsSpace) {
				terms = append([]string{terms[0] + terms[1]}, terms[2:]...)
			}
		case 3:
			if len(out)%16 == 3 { // nothing to mend towards: 422 under mending, 400 without
				terms = []string{"zzqzzwxq", "qqxzzvkq"}[:1+rng.Intn(2)]
			}
		}
		out = append(out, kqr.Suggestion{Terms: terms}.String())
	}
	return out
}

// TestEncoderMatchesRef is the differential sweep: every
// response of ≥ 200 queries × k ∈ {1, 5, 50} × mend ∈ {on, off, auto},
// clean, misspelled, run together and unanswerable, on the synthetic
// test corpus and on one whose terms need every escape, from a mending
// and from a plain engine — status and body equal to the oracle's.
func TestEncoderMatchesRef(t *testing.T) {
	bib, err := synthetic.Bibliography(synthetic.Config{Seed: 11, Topics: 4, Confs: 8, Authors: 60, Papers: 400})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		ds   func() *kqr.Dataset
		opts kqr.Options
	}{
		{"bibliography/mend", func() *kqr.Dataset { return bib.Dataset }, kqr.Options{Mend: true}},
		{"odd/mend", func() *kqr.Dataset { return oddCorpus(t) }, kqr.Options{Mend: true}},
		{"odd/plain+deletion", func() *kqr.Dataset { return oddCorpus(t) }, kqr.Options{AllowDeletion: true}},
	} {
		t.Run(c.name, func(t *testing.T) {
			eng, err := kqr.Open(c.ds(), c.opts)
			if err != nil {
				t.Fatal(err)
			}
			srv, err := New(eng, WithLogger(log.New(io.Discard, "", 0)))
			if err != nil {
				t.Fatal(err)
			}
			h := srv.Handler()
			var responses, ok, repaired, rejected, escaped int
			for _, query := range sweepQueries(eng.Vocabulary(), 200) {
				for _, k := range []string{"1", "5", "50"} {
					for _, mode := range []string{"on", "off", "auto"} {
						q := url.Values{"q": {query}, "k": {k}, "mend": {mode}}
						w := httptest.NewRecorder()
						h.ServeHTTP(w, httptest.NewRequest("GET", "/api/reformulate?"+q.Encode(), nil))
						wantStatus, want := oracleReformulate(srv, q)
						if w.Code != wantStatus || !bytes.Equal(w.Body.Bytes(), want) {
							t.Fatalf("%s\n got %d %s\nwant %d %s", q.Encode(), w.Code, w.Body, wantStatus, want)
						}
						responses++
						switch {
						case w.Code == http.StatusOK:
							ok++
							if bytes.Contains(want, []byte(`"corrected_query"`)) {
								repaired++
							}
							if bytes.Contains(want, []byte(`\u`)) || bytes.Contains(want, []byte(`\\`)) {
								escaped++
							}
						case w.Code == http.StatusUnprocessableEntity:
							rejected++
						}
					}
				}
			}
			t.Logf("%d responses: %d ok (%d with a repair echoed, %d with escapes), %d rejected 422", responses, ok, repaired, escaped, rejected)
			if ok < responses/3 {
				t.Errorf("only %d of %d responses were 200: the sweep compares error envelopes", ok, responses)
			}
			if c.opts.Mend && (repaired == 0 || rejected == 0) {
				t.Errorf("a mending sweep with %d repairs and %d rejections", repaired, rejected)
			}
			if strings.HasPrefix(c.name, "odd") && escaped == 0 {
				t.Error("the odd corpus produced no body with an escape in it")
			}
		})
	}
}

// FuzzAppendSuggestionJSON: for any term strings — quotes, backslashes,
// <>&, U+2028/2029, control bytes, invalid UTF-8 — and any float64 bit
// pattern, appendSuggestion equals json.Marshal of the oracle's struct,
// errors (NaN, ±Inf) included.
func FuzzAppendSuggestionJSON(f *testing.F) {
	for _, terms := range [][2]string{
		{"probabilistic", "ranking"}, {"wei zhang", `say "hi"`}, {`back\slash`, "<script>&amp;"},
		{"line\u2028sep", "para\u2029sep"}, {"\x00\x01\b\f\n\r\t\x1f\x7f", ""}, {"bad\xff\xfeutf8", "\xe2\x80"},
		{"日本語", " lead and trail "},
	} {
		for _, score := range []float64{
			0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, 2.2250738585072009e-308, // zero, subnormals
			1e-7, 9.999999999999999e-7, 1e-6, 1.0000000000000002e-6, // the 'e'/'f' switch below
			9.999999999999999e20, 1e21, 1.0000000000000001e21, // and above
			0.0005090632708507741, 1, 1e-9, 1e-10, 1e100, math.MaxFloat64, -math.MaxFloat64, -1e-7,
			math.NaN(), math.Inf(1), math.Inf(-1),
		} {
			f.Add(terms[0], terms[1], math.Float64bits(score), 0)
		}
	}
	f.Fuzz(func(t *testing.T, t1, t2 string, bits uint64, i int) {
		sg := kqr.Suggestion{Terms: []string{t1, t2}, Score: math.Float64frombits(bits)}
		if i%3 == 0 {
			sg.Terms = sg.Terms[:1]
		}
		i &= 1 // first element, or one that follows a comma
		got, err := appendSuggestion([]byte("x"), i, sg)
		want, wantErr := json.Marshal(suggestion{Terms: sg.Terms, Query: sg.String(), Score: sg.Score})
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("%+v: error %v, json.Marshal's %v", sg, err, wantErr)
		}
		if err != nil {
			return
		}
		want = append([]byte("x,")[:1+i], want...)
		if !bytes.Equal(got, want) {
			t.Fatalf("%+v:\n got %s\nwant %s", sg, got, want)
		}
	})
}
