package kqr_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"kqr"
	"kqr/internal/artifact"
	"kqr/internal/catgen"
	"kqr/internal/dblpgen"
	"kqr/internal/relstore"
	"kqr/internal/repl"
	"kqr/internal/testcorpus"
	"kqr/server"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite "+goldenPath+" from warmed RAM engines")

const goldenPath = "testdata/golden_answers.json"

// goldenFile is the committed answer set: per corpus, the queries and
// what the engine answers to each.
type goldenFile struct {
	Corpora []goldenSet `json:"corpora"`
}

type goldenSet struct {
	Corpus string       `json:"corpus"`
	Cases  []goldenCase `json:"cases"`
}

// goldenCase is one query at one k with its three answers: Reformulate
// in full (every suggestion with its exact score), and digests of
// ReformulateMended (suggestions and mend result) and of the
// /api/reformulate response (status and body). The texts the digests
// were taken over are kept, unserialized, for failure messages.
type goldenCase struct {
	Terms  []string `json:"terms"`
	K      int      `json:"k"`
	Answer string   `json:"answer"`
	Mended string   `json:"mended"`
	Body   string   `json:"body"`

	mendedText, bodyText string
}

// goldenCorpus is one corpus of the answer set.
type goldenCorpus struct {
	name  string
	build func() (*relstore.Database, error)
	// table and column name the segmented text the query set is drawn
	// from.
	table, column string
	// seeds are extra mend inputs beyond the generated typos.
	seeds [][]string
	// row is inserted by one promotion and deleted by the next, which
	// must leave the corpus the file was made from.
	row kqr.Delta
	// faults is set when the tables outgrow the page cache's floor of
	// one page per shard, so that a budget below them faults.
	faults bool
}

func goldenCorpora() []goldenCorpus {
	return []goldenCorpus{
		{
			name: "testcorpus", build: testcorpus.New, table: "papers", column: "title",
			seeds: [][]string{{"alice", "amse"}, {"aliceames"}, {"alice ames", "probabilstic"}},
			row:   kqr.Delta{Op: kqr.InsertTuple, Table: "papers", Values: []any{9001, "probabilistic golden sieve", 1}},
		},
		{
			name: "dblpgen P=200",
			build: func() (*relstore.Database, error) {
				c, err := dblpgen.Generate(dblpgen.Config{Seed: 20120401, Topics: 4, Confs: 8, Authors: 80, Papers: 200})
				if err != nil {
					return nil, err
				}
				return c.DB, nil
			},
			table: "papers", column: "title",
			row:    kqr.Delta{Op: kqr.InsertTuple, Table: "papers", Values: []any{900001, "golden sieve mining", 1}},
			faults: true,
		},
		{
			name: "catgen",
			build: func() (*relstore.Database, error) {
				c, err := catgen.Generate(catgen.Config{Seed: 1, Products: 200})
				if err != nil {
					return nil, err
				}
				return c.DB, nil
			},
			table: "products", column: "name",
			row:    kqr.Delta{Op: kqr.InsertTuple, Table: "brands", Values: []any{9001, "goldenbrand"}},
			faults: true,
		},
	}
}

// TestGoldenAnswers pins the answers the engine serves.
// testdata/golden_answers.json holds, for three corpora (testcorpus,
// dblpgen P=200, catgen), a query set and its answers; the test opens
// each corpus in every mode an engine serves in and compares every
// answer with the file:
//   - RAM lazy (rows computed on first use) and RAM warmed;
//   - restored into RAM from a v1 and from a v2 snapshot;
//   - disk mode, under the default budget and under one that holds a
//     third of the tables, so pages fault and are evicted;
//   - a live leader after two promotions (a row inserted, then deleted
//     again), which must answer like the fresh build the file was made
//     from;
//   - a follower bootstrapped from that leader.
//
// The queries are adjacent title-term pairs, mend seeds (typos,
// run-together and split terms), and 1-, 3- and 7-term queries, each at
// k = 1 and k = 10. A failure names the first differing query of a
// mode and prints both answers.
//
// The file changes only when answers change on purpose. To regenerate
// it, run
//
//	go test . -run TestGoldenAnswers -update-golden
//
// which rebuilds the query set from the corpora, records the warmed RAM
// engine's answers and then checks every mode against them; record in
// CHANGES.md why the answers moved.
func TestGoldenAnswers(t *testing.T) {
	var file goldenFile
	if !*updateGolden {
		data, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &file); err != nil {
			t.Fatal(err)
		}
	}
	for i, c := range goldenCorpora() {
		open := func(opts kqr.Options) *kqr.Engine {
			t.Helper()
			db, err := c.build()
			if err != nil {
				t.Fatal(err)
			}
			opts.Mend = true
			eng, err := kqr.Open(kqr.WrapDatabase(db), opts)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			t.Cleanup(eng.Close)
			return eng
		}
		ctx := context.Background()
		warm := open(kqr.Options{})
		if err := warm.Warm(ctx); err != nil {
			t.Fatal(err)
		}
		if *updateGolden {
			db, err := c.build()
			if err != nil {
				t.Fatal(err)
			}
			cases := goldenServe(t, warm, goldenQueries(db, c, warm.Vocabulary()))
			file.Corpora = append(file.Corpora, goldenSet{Corpus: c.name, Cases: cases})
		}
		if i >= len(file.Corpora) || file.Corpora[i].Corpus != c.name {
			t.Fatalf("%s holds no answers for corpus %s", goldenPath, c.name)
		}
		want := file.Corpora[i].Cases
		check := func(mode string, eng *kqr.Engine) {
			t.Helper()
			goldenCompare(t, c.name+", "+mode, want, goldenServe(t, eng, want))
		}

		check("RAM lazy", open(kqr.Options{}))
		check("RAM warmed", warm)

		dir := t.TempDir()
		v1, v2 := filepath.Join(dir, "v1.kqrart"), filepath.Join(dir, "v2.kqrart")
		if err := warm.SaveArtifacts(v1); err != nil {
			t.Fatal(err)
		}
		if err := warm.SaveArtifactsPaged(v2); err != nil {
			t.Fatal(err)
		}
		for _, v := range []struct {
			path    string
			version uint16
		}{{v1, 1}, {v2, 2}} {
			eng := open(kqr.Options{ArtifactPath: v.path})
			if info := eng.Artifact(); !info.Loaded || info.FormatVersion != v.version {
				t.Fatalf("%s: snapshot v%d not restored: %+v", c.name, v.version, info)
			}
			check("snapshot v"+strconv.Itoa(int(v.version)), eng)
		}

		check("disk mode", open(kqr.Options{ArtifactPath: v2, DiskMode: true}))
		if c.faults {
			goldenFaulting(t, c.name, v1, open, check)
		}

		// After two promotions the leader serves the file's corpus
		// again; a follower bootstraps from it.
		leader := open(kqr.Options{Live: true})
		if err := leader.Warm(ctx); err != nil {
			t.Fatal(err)
		}
		undo := kqr.Delta{Op: kqr.DeleteTuple, Table: c.row.Table, Key: c.row.Values[0]}
		for _, d := range []kqr.Delta{c.row, undo} {
			if err := leader.Ingest([]kqr.Delta{d}); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if _, err := leader.Promote(ctx); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
		check("leader after 2 promotions", leader)
		check("follower after bootstrap", goldenFollower(t, leader))
	}
	if *updateGolden && !t.Failed() {
		if err := os.WriteFile(goldenPath, goldenEncode(file), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// goldenEncode writes the file one case per line, so a changed answer
// is a one-line diff.
func goldenEncode(file goldenFile) []byte {
	b := []byte("{\"corpora\": [\n")
	for i, set := range file.Corpora {
		name, _ := json.Marshal(set.Corpus)
		b = append(append(append(b, "{\"corpus\": "...), name...), ", \"cases\": [\n"...)
		for j, c := range set.Cases {
			line, _ := json.Marshal(c)
			b = append(b, line...)
			if j+1 < len(set.Cases) {
				b = append(b, ',')
			}
			b = append(b, '\n')
		}
		b = append(b, "]}"...)
		if i+1 < len(file.Corpora) {
			b = append(b, ',')
		}
		b = append(b, '\n')
	}
	return append(b, "]}\n"...)
}

// goldenFaulting serves the corpus in disk mode from the v1 snapshot
// rewritten in 1 KiB pages, under a budget that holds a third of them,
// and checks that pages were evicted and the budget held.
func goldenFaulting(t *testing.T, name, v1 string, open func(kqr.Options) *kqr.Engine, check func(string, *kqr.Engine)) {
	t.Helper()
	f, err := os.Open(v1)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	snap, err := artifact.Load(f, "")
	if err != nil {
		t.Fatal(err)
	}
	paged := filepath.Join(t.TempDir(), "small-pages.kqrart")
	out, err := os.Create(paged)
	if err != nil {
		t.Fatal(err)
	}
	if err := snap.WritePaged(out, artifact.PagedOptions{PageBytes: 1 << 10}); err != nil {
		t.Fatal(err)
	}
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
	// The engine hands diskmode what the mend index leaves of the
	// default 64 MiB; keep the mend index and the page index resident
	// and leave the page cache a third of the tables.
	st, _ := open(kqr.Options{ArtifactPath: paged, DiskMode: true}).DiskTables()
	eng := open(kqr.Options{ArtifactPath: paged, DiskMode: true, TableMemBudget: 64<<20 - st.Budget + st.MetaBytes + st.BlobBytes/3})
	check("disk mode, faulting budget", eng)
	if st, _ := eng.DiskTables(); st.Evictions == 0 || st.ResidentBytes > st.Budget {
		t.Fatalf("%s: the faulting budget did not fault within its bound: %+v", name, st)
	}
}

// goldenFollower mounts a replication leader on the live engine and
// returns a follower engine bootstrapped from it.
func goldenFollower(t *testing.T, leader *kqr.Engine) *kqr.Engine {
	t.Helper()
	mgr, _ := leader.Replication()
	l, err := repl.NewLeader(mgr, t.TempDir(), repl.LeaderOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	srv, err := server.New(leader, server.WithLogger(log.New(io.Discard, "", 0)), server.WithReplicationLeader(l))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	f := repl.NewFollower(ts.URL, repl.FollowerOptions{})
	snap, err := f.Bootstrap(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := kqr.Open(kqr.WrapDatabase(snap.DB), kqr.Options{Mend: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	fmgr, _ := eng.Replication()
	if err := f.Attach(fmgr, snap); err != nil {
		t.Fatal(err)
	}
	return eng
}

// goldenServe answers every query of cases through eng: Reformulate,
// ReformulateMended, and /api/reformulate in-process.
func goldenServe(t *testing.T, eng *kqr.Engine, cases []goldenCase) []goldenCase {
	t.Helper()
	srv, err := server.New(eng, server.WithLogger(log.New(io.Discard, "", 0)))
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	out := make([]goldenCase, len(cases))
	for i, c := range cases {
		sugs, err := eng.Reformulate(c.Terms, c.K)
		mended, res, merr := eng.ReformulateMended(c.Terms, c.K)
		mend, _ := json.Marshal(res)
		q := url.Values{"q": {kqr.Suggestion{Terms: c.Terms}.String()}, "k": {strconv.Itoa(c.K)}}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/reformulate?"+q.Encode(), nil))
		out[i] = goldenCase{
			Terms:      c.Terms,
			K:          c.K,
			Answer:     goldenRender(sugs, err),
			mendedText: goldenRender(mended, merr) + " | mend " + string(mend),
			bodyText:   strconv.Itoa(rec.Code) + " " + rec.Body.String(),
		}
		out[i].Mended, out[i].Body = goldenDigest(out[i].mendedText), goldenDigest(out[i].bodyText)
	}
	return out
}

// goldenRender writes an answer as "terms=score" per suggestion, scores
// in full precision, or the error.
func goldenRender(sugs []kqr.Suggestion, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	parts := make([]string, len(sugs))
	for i, s := range sugs {
		parts[i] = s.String() + "=" + strconv.FormatFloat(s.Score, 'g', -1, 64)
	}
	return strings.Join(parts, "; ")
}

func goldenDigest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:8])
}

// goldenCompare reports the first query whose answers differ from the
// file's.
func goldenCompare(t *testing.T, where string, want, got []goldenCase) {
	t.Helper()
	for i, w := range want {
		g := got[i]
		var what, gotText, wantText string
		switch {
		case g.Answer != w.Answer:
			what, gotText, wantText = "Reformulate", g.Answer, w.Answer
		case g.Mended != w.Mended:
			what, gotText, wantText = "ReformulateMended", g.mendedText, "digest "+w.Mended
		case g.Body != w.Body:
			what, gotText, wantText = "/api/reformulate", g.bodyText, "digest "+w.Body
		default:
			continue
		}
		t.Errorf("%s: first differing query %q at k=%d; %s answered\n\t%s\nwant\n\t%s\n(Reformulate answer in the file: %s)",
			where, w.Terms, w.K, what, gotText, wantText, w.Answer)
		return
	}
}

// goldenQueries builds a corpus's query set from the vocabulary words of
// its titles, in table order: adjacent title-term pairs, mend seeds
// made from the first pairs (one and two deletions, run-together,
// transposition) plus the corpus's own, and 1-, 3- and 7-term queries —
// each at k = 1 and k = 10.
func goldenQueries(db *relstore.Database, c goldenCorpus, vocab []string) []goldenCase {
	inVocab := make(map[string]bool, len(vocab))
	for _, v := range vocab {
		inVocab[v] = true
	}
	tab, err := db.Table(c.table)
	if err != nil {
		panic(err)
	}
	schema := tab.Schema()
	col := schema.ColumnIndex(c.column)
	var titles [][]string
	tab.Scan(func(tp relstore.Tuple) bool {
		var words []string
		for _, w := range strings.Fields(strings.ToLower(tp.Values[col].Text())) {
			if inVocab[w] && (len(words) == 0 || words[len(words)-1] != w) {
				words = append(words, w)
			}
		}
		titles = append(titles, words)
		return true
	})

	var queries [][]string
	seen := map[string]bool{}
	add := func(q ...string) bool {
		key := strings.Join(q, "\x00")
		if len(q) == 0 || seen[key] {
			return false
		}
		seen[key] = true
		queries = append(queries, q)
		return true
	}
	var pairs [][2]string
	for _, w := range titles {
		for i := 0; i+1 < len(w) && len(pairs) < 16; i++ {
			if add(w[i], w[i+1]) {
				pairs = append(pairs, [2]string{w[i], w[i+1]})
			}
		}
	}
	drop := func(s string) string { return s[:len(s)/2] + s[len(s)/2+1:] }
	for _, p := range pairs[:4] {
		a, b := p[0], p[1]
		add(drop(a), b)
		add(drop(drop(a)), b)
		add(a + b)
		add(a, b[:1]+b[2:3]+b[1:2]+b[3:])
	}
	for _, s := range c.seeds {
		add(s...)
	}
	var flat []string
	for _, w := range titles {
		flat = append(flat, w...)
	}
	for i := 0; i < 4; i++ {
		add(flat[i*len(flat)/4])
	}
	for n, i := 0, 0; n < 4 && i < len(titles); i++ {
		if len(titles[i]) >= 3 && add(titles[i][:3]...) {
			n++
		}
	}
	for i := 0; i < 3; i++ {
		lo := i * (len(flat) - 7) / 2
		add(flat[lo : lo+7]...)
	}

	var cases []goldenCase
	for _, q := range queries {
		for _, k := range []int{1, 10} {
			cases = append(cases, goldenCase{Terms: q, K: k})
		}
	}
	return cases
}
