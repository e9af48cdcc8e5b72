package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"kqr"
	"kqr/internal/core"
	"kqr/synthetic"
)

// mendServer opens the test bibliography with mending on, lazily, and
// wraps it in a server with no cache or limiter.
func mendServer(t testing.TB) *Server {
	t.Helper()
	corpus, err := synthetic.Bibliography(synthetic.Config{Seed: 11, Topics: 4, Confs: 8, Authors: 60, Papers: 400})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := kqr.Open(corpus.Dataset, kqr.Options{Mend: true})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(eng, WithLogger(log.New(io.Discard, "", 0)))
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// repeatQuery is the first title-like vocabulary run repeated to m terms.
func repeatQuery(vocab []string, m int) string {
	terms := make([]string, m)
	for i := range terms {
		terms[i] = vocab[(i*7)%len(vocab)]
	}
	return kqr.Suggestion{Terms: terms}.String()
}

// A query of core.MaxQueryTerms terms is answered with suggestions; one
// term more is a 400 naming the limit, under every mend mode.
func TestQueryLengthCap(t *testing.T) {
	srv := mendServer(t)
	vocab := []string{"probabilistic", "data", "uncertain", "query", "xml", "indexing", "ranking"}
	for _, mode := range []string{"off", "auto"} {
		for _, tc := range []struct {
			m      int
			status int
		}{{core.MaxQueryTerms, http.StatusOK}, {core.MaxQueryTerms + 1, http.StatusBadRequest}} {
			q := url.Values{"q": {repeatQuery(vocab, tc.m)}, "k": {"10"}, "mend": {mode}}
			w := httptest.NewRecorder()
			srv.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/api/reformulate?"+q.Encode(), nil))
			if w.Code != tc.status {
				t.Fatalf("mend=%s, %d terms: status %d, want %d: %s", mode, tc.m, w.Code, tc.status, w.Body)
			}
			var body struct {
				Error       string            `json:"error"`
				Suggestions []json.RawMessage `json:"suggestions"`
			}
			if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
				t.Fatal(err)
			}
			switch {
			case tc.status == http.StatusOK && len(body.Suggestions) == 0:
				t.Fatalf("mend=%s: no suggestions for a %d-term query", mode, tc.m)
			case tc.status != http.StatusOK && !strings.Contains(body.Error, "at most "+strconv.Itoa(core.MaxQueryTerms)):
				t.Fatalf("mend=%s: error %q does not name the limit", mode, body.Error)
			}
		}
	}
}

// FuzzReformulateHandler drives /api/reformulate through the handler
// stack with arbitrary q, k and mend strings of up to 64 KiB: it must
// not panic, must answer 200, 400, 422 or 503, with a JSON error
// envelope on every non-200 response, and every 200 body must equal the
// in-process answer (oracleReformulate). The seeds run in every go test.
func FuzzReformulateHandler(f *testing.F) {
	vocab := []string{"probabilistic", "data", "uncertain", "query", "xml", "indexing", "ranking"}
	for _, seed := range [][3]string{
		{"probabilistic data", "5", ""},
		{"uncertain query", "50", "on"},
		{"probabilstic dta", "10", "auto"},
		{"probabilisticdata", "1", "off"},
		{`"unbalanced`, "1", "auto"},
		{"", "", ""},
		{"xml", "junk", "sometimes"},
		{"zzqzzwxq", "3", "on"},
		{repeatQuery(vocab, core.MaxQueryTerms), "50", "auto"},
		{repeatQuery(vocab, core.MaxQueryTerms+1), "5", "off"},
		{repeatQuery(vocab, 400), "50", "auto"},
		{strings.Repeat("dta ", 2000), "1", "auto"},
	} {
		f.Add(seed[0], seed[1], seed[2])
	}
	srv := mendServer(f)
	h := srv.Handler()
	f.Fuzz(func(t *testing.T, q, k, mend string) {
		if len(q)+len(k)+len(mend) > 64<<10 {
			t.Skip()
		}
		vals := url.Values{"q": {q}, "k": {k}, "mend": {mend}}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", "/api/reformulate?"+vals.Encode(), nil))
		switch w.Code {
		case http.StatusOK:
			if status, want := oracleReformulate(srv, vals); status != http.StatusOK || !bytes.Equal(w.Body.Bytes(), want) {
				t.Fatalf("%s: got 200 %s\nwant %d %s", vals.Encode(), w.Body, status, want)
			}
		case http.StatusBadRequest, http.StatusUnprocessableEntity, http.StatusServiceUnavailable:
			var env apiError
			if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil || env.Error == "" {
				t.Fatalf("%s: %d with body %q, not a JSON error envelope", vals.Encode(), w.Code, w.Body)
			}
		default:
			t.Fatalf("%s: status %d", vals.Encode(), w.Code)
		}
	})
}
