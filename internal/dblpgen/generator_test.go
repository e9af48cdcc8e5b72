package dblpgen

import (
	"strings"
	"testing"

	"kqr/internal/relstore"
	"kqr/internal/textindex"
)

// smallCfg keeps test corpora fast.
func smallCfg(seed int64) Config {
	return Config{Seed: seed, Topics: 4, Confs: 8, Authors: 60, Papers: 300}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Topics: -1},
		{Topics: 10, Confs: 5},              // fewer confs than topics
		{Topics: 10, Confs: 10, Authors: 5}, // fewer authors than topics
		{Papers: -1},
		{MinTitle: 1, MaxTitle: 5}, // too-short titles
		{MinTitle: 5, MaxTitle: 3}, // inverted range
		{MaxAuthors: -2},
		{CiteProb: 1.5},
	}
	for i, cfg := range bad {
		if _, err := Generate(cfg); err == nil {
			t.Fatalf("bad config %d accepted: %+v", i, cfg)
		}
	}
}

func TestGenerateCounts(t *testing.T) {
	c, err := Generate(smallCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	st := c.DB.Stats()
	if st.PerTable["conferences"] != 8 || st.PerTable["authors"] != 60 || st.PerTable["papers"] != 300 {
		t.Fatalf("stats = %v", st)
	}
	if st.PerTable["writes"] < 300 {
		t.Fatalf("writes = %d, want >= one per paper", st.PerTable["writes"])
	}
	if st.PerTable["cites"] == 0 {
		t.Fatal("no citations generated")
	}
	if len(c.AuthorNames) != 60 || len(c.ConfNames) != 8 {
		t.Fatalf("name lists: %d authors, %d confs", len(c.AuthorNames), len(c.ConfNames))
	}
}

func TestReferentialIntegrity(t *testing.T) {
	c, err := Generate(smallCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.DB.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

func TestDeterminism(t *testing.T) {
	a, err := Generate(smallCfg(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(smallCfg(7))
	if err != nil {
		t.Fatal(err)
	}
	ta, err := a.DB.Table("papers")
	if err != nil {
		t.Fatal(err)
	}
	tb, err := b.DB.Table("papers")
	if err != nil {
		t.Fatal(err)
	}
	if ta.Len() != tb.Len() {
		t.Fatal("paper counts differ")
	}
	for i := 0; i < ta.Len(); i++ {
		ra, err := ta.Tuple(i)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := tb.Tuple(i)
		if err != nil {
			t.Fatal(err)
		}
		for j := range ra.Values {
			if !ra.Values[j].Equal(rb.Values[j]) {
				t.Fatalf("row %d differs: %v vs %v", i, ra.Values, rb.Values)
			}
		}
	}
	// Different seeds must differ somewhere.
	cdiff, err := Generate(smallCfg(8))
	if err != nil {
		t.Fatal(err)
	}
	tc, err := cdiff.DB.Table("papers")
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := 0; i < ta.Len() && i < tc.Len(); i++ {
		ra, _ := ta.Tuple(i)
		rc, _ := tc.Tuple(i)
		if !ra.Values[1].Equal(rc.Values[1]) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical titles")
	}
}

// The central planted invariant: synonym pair members never co-occur in
// a title, yet both occur in the corpus.
func TestSynonymsNeverCooccur(t *testing.T) {
	c, err := Generate(smallCfg(3))
	if err != nil {
		t.Fatal(err)
	}
	papers, err := c.DB.Table("papers")
	if err != nil {
		t.Fatal(err)
	}
	occur := map[string]int{}
	papers.Scan(func(tp relstore.Tuple) bool {
		title := " " + tp.Values[1].Text() + " "
		for a, b := range c.Truth.Synonym {
			if strings.Contains(title, " "+a+" ") && strings.Contains(title, " "+b+" ") {
				t.Fatalf("synonyms %q and %q co-occur in %q", a, b, tp.Values[1].Text())
			}
			if strings.Contains(title, " "+a+" ") {
				occur[a]++
			}
		}
		return true
	})
	for term := range c.Truth.Synonym {
		if occur[term] == 0 {
			t.Fatalf("synonym member %q never appears in any title", term)
		}
	}
}

func TestGroundTruthRelated(t *testing.T) {
	c, err := Generate(smallCfg(4))
	if err != nil {
		t.Fatal(err)
	}
	gt := c.Truth
	if !gt.Related("probabilistic", "uncertain") {
		t.Fatal("planted synonyms not related")
	}
	if !gt.Related("probabilistic", "probabilistic") {
		t.Fatal("identity not related")
	}
	// Synonym members span every community of their parent topic, so
	// they stay related to all of its vocabulary.
	if !gt.Related("probabilistic", "ranking") {
		t.Fatal("synonym member unrelated to its topic's vocabulary")
	}
	// Cross-topic words are not related (uncertain-data vs xml vocab).
	if gt.Related("ranking", "twig") {
		t.Fatal("cross-topic words related")
	}
	// Sibling communities: related at the parent level (related-topic
	// exploration) but distinguishable with the stricter SameCommunity.
	t0 := gt.TopicTermList(0)
	t1 := gt.TopicTermList(1)
	plain := func(ts []string) string {
		for _, w := range ts {
			if gt.Synonym[w] == "" {
				return w
			}
		}
		return ""
	}
	p0, p1 := plain(t0), plain(t1)
	if p0 == "" || p1 == "" {
		t.Fatal("no plain words found")
	}
	if !gt.Related(p0, p1) {
		t.Fatalf("sibling-community words %q and %q not parent-related", p0, p1)
	}
	if gt.SameCommunity(p0, p1) {
		t.Fatalf("sibling-community words %q and %q share a community", p0, p1)
	}
	if !gt.SameCommunity(p0, t0[0]) {
		t.Fatal("community word not SameCommunity with its synonym member")
	}
	if gt.Related("zebra", "unknownword") {
		t.Fatal("unknown words related")
	}
}

func TestGroundTruthCoversEntities(t *testing.T) {
	c, err := Generate(smallCfg(5))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range c.AuthorNames {
		if len(c.Truth.AuthorTopics[textindex.Normalize(name)]) == 0 {
			t.Fatalf("author %q missing from ground truth", name)
		}
	}
	for _, name := range c.ConfNames {
		if len(c.Truth.ConfTopics[textindex.Normalize(name)]) == 0 {
			t.Fatalf("conference %q missing from ground truth", name)
		}
	}
}

func TestTopicTermList(t *testing.T) {
	c, err := Generate(smallCfg(6))
	if err != nil {
		t.Fatal(err)
	}
	terms := c.Truth.TopicTermList(0)
	if len(terms) < 5 {
		t.Fatalf("topic 0 has %d terms", len(terms))
	}
	// Synonyms lead the list.
	if c.Truth.Synonym[terms[0]] == "" {
		t.Fatalf("first term %q is not a synonym member", terms[0])
	}
	// All terms belong to topic 0.
	for _, term := range terms {
		found := false
		for _, tp := range c.Truth.TermTopics[term] {
			if tp == 0 {
				found = true
			}
		}
		if !found {
			t.Fatalf("term %q not in topic 0", term)
		}
	}
}

func TestSynthesizedTopicsBeyondBuiltins(t *testing.T) {
	c, err := Generate(Config{Seed: 9, Topics: 12, Confs: 24, Authors: 60, Papers: 200})
	if err != nil {
		t.Fatal(err)
	}
	// TopicNames lists communities: Topics × Subtopics (default 2).
	if len(c.Truth.TopicNames) != 24 {
		t.Fatalf("communities = %d, want 24", len(c.Truth.TopicNames))
	}
	// Synthetic topics must also have vocabulary and synonyms.
	terms := c.Truth.TopicTermList(23)
	if len(terms) < 5 {
		t.Fatalf("synthetic topic has %d terms", len(terms))
	}
}

func TestTitleShape(t *testing.T) {
	c, err := Generate(smallCfg(10))
	if err != nil {
		t.Fatal(err)
	}
	papers, err := c.DB.Table("papers")
	if err != nil {
		t.Fatal(err)
	}
	papers.Scan(func(tp relstore.Tuple) bool {
		words := strings.Fields(tp.Values[1].Text())
		if len(words) < 2 || len(words) > 8 {
			t.Fatalf("title %q has %d words", tp.Values[1].Text(), len(words))
		}
		return true
	})
}
