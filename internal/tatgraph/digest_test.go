package tatgraph

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"kqr/internal/catgen"
	"kqr/internal/dblpgen"
	"kqr/internal/graph"
	"kqr/internal/relstore"
	"kqr/internal/testcorpus"
)

var updateDigest = flag.Bool("update", false, "rewrite "+digestPath+" from the current Build")

const digestPath = "testdata/graph_digests.txt"

// TestGraphDigest pins the built TAT graph bit for bit: node kinds,
// classes, term texts and tuple ids, class names and document counts,
// every node's idf bits, and every CSR adjacency with its weight bits,
// over three corpora with Phrases off and on. A change to the build
// path that alters any of them fails here before any answer moves.
//
// The digests are committed in testdata/graph_digests.txt. Rewrite
// them only for a deliberate change to the graph:
//
//	go test ./internal/tatgraph -run TestGraphDigest -update
func TestGraphDigest(t *testing.T) {
	corpora := []struct {
		name string
		db   func() (*relstore.Database, error)
	}{
		{"testcorpus", testcorpus.New},
		{"dblpgen-p200", func() (*relstore.Database, error) {
			c, err := dblpgen.Generate(dblpgen.Config{Seed: 1, Papers: 200})
			if err != nil {
				return nil, err
			}
			return c.DB, nil
		}},
		{"catgen", func() (*relstore.Database, error) {
			c, err := catgen.Generate(catgen.Config{})
			if err != nil {
				return nil, err
			}
			return c.DB, nil
		}},
	}
	got := map[string]string{}
	for _, c := range corpora {
		db, err := c.db()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, phrases := range []bool{false, true} {
			tg, err := Build(db, Options{Phrases: phrases})
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			got[fmt.Sprintf("%s phrases=%v", c.name, phrases)] = graphDigest(tg)
		}
	}
	if *updateDigest {
		names := make([]string, 0, len(got))
		for name := range got {
			names = append(names, name)
		}
		sort.Strings(names)
		var sb strings.Builder
		for _, name := range names {
			fmt.Fprintf(&sb, "%s\t%s\n", name, got[name])
		}
		if err := os.MkdirAll(filepath.Dir(digestPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestPath, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(digestPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, sum, ok := strings.Cut(sc.Text(), "\t")
		if !ok {
			t.Fatalf("%s: malformed line %q", digestPath, sc.Text())
		}
		want[name] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("%s holds %d digests, the test computes %d", digestPath, len(want), len(got))
	}
	for name, sum := range got {
		if want[name] != sum {
			t.Errorf("%s: graph digest %s, want %s", name, sum, want[name])
		}
	}
}

// graphDigest hashes everything Build derives from the corpus.
func graphDigest(tg *Graph) string {
	h := sha256.New()
	putInt := func(v int64) { binary.Write(h, binary.LittleEndian, v) }
	putFloat := func(f float64) { putInt(int64(math.Float64bits(f))) }
	n := tg.NumNodes()
	putInt(int64(n))
	for v := 0; v < n; v++ {
		putInt(int64(tg.kinds[v]))
		putInt(int64(tg.classes[v]))
		putString(h, tg.terms[v])
		putString(h, tg.tuples[v].Table)
		putInt(int64(tg.tuples[v].Row))
		putFloat(tg.idf[v])
		nbrs, ws := tg.g.Adjacency(graph.NodeID(v))
		putInt(int64(len(nbrs)))
		for i, u := range nbrs {
			putInt(int64(u))
			putFloat(ws[i])
		}
	}
	putInt(int64(len(tg.classNames)))
	for c, name := range tg.classNames {
		putString(h, name)
		putInt(int64(tg.classDocs[c]))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func putString(h hash.Hash, s string) {
	binary.Write(h, binary.LittleEndian, int64(len(s)))
	h.Write([]byte(s))
}
