// Package tatgraph builds the Term Augmented Tuple graph (TAT graph,
// paper §IV-A, Definition 5): a heterogeneous undirected graph whose
// nodes are the database tuples plus the terms extracted from their
// textual fields, and whose edges are foreign-key references
// (tuple–tuple) and term occurrences (term–tuple).
//
// Term nodes are scoped per field — the same word appearing in a paper
// title and in a conference name yields two distinct nodes, as the paper
// prescribes ("we label them with field identifiers").
package tatgraph

import (
	"math"
	"sort"

	"kqr/internal/graph"
	"kqr/internal/relstore"
	"kqr/internal/textindex"
)

// NodeKind distinguishes tuple nodes from term nodes.
type NodeKind uint8

const (
	// KindTuple marks a node representing a stored tuple.
	KindTuple NodeKind = iota
	// KindTerm marks a node representing a term within one field.
	KindTerm
)

// String returns the kind name.
func (k NodeKind) String() string {
	if k == KindTuple {
		return "tuple"
	}
	return "term"
}

// classKey identifies a term class: one textual field of one table.
type classKey struct {
	field string // "table.column"
	term  string
}

// Graph is the frozen TAT graph plus the node metadata needed by the
// similarity and closeness extractors. It is immutable after Build and
// safe for concurrent readers.
type Graph struct {
	g *graph.Graph

	kinds   []NodeKind
	classes []int32  // per-node class id
	terms   []string // term text; "" for tuple nodes
	tuples  []relstore.TupleID

	classNames []string         // class id -> label (table name or "table.column")
	classDocs  []int            // class id -> document count backing idf
	classNodes [][]graph.NodeID // class id -> member nodes, ascending
	idf        []float64        // per-node inverse-occurrence weight

	termNodes   map[classKey]graph.NodeID
	tupleNodes  map[relstore.TupleID]graph.NodeID
	byText      map[string][]graph.NodeID // term text -> nodes across fields
	termClasses map[string]bool           // field labels that have term nodes

	db  *relstore.Database
	tok *textindex.Tokenizer
}

// Options configures Build.
type Options struct {
	// Tokenizer segments free-text fields; nil uses the default.
	Tokenizer *textindex.Tokenizer
	// Phrases additionally creates term nodes for adjacent-word pairs
	// in segmented fields ("association rules"), so queries can match
	// and substitute topical phrases (Definition 2: a keyword "is a
	// word or a topical phrase"). Only bigrams occurring at least
	// minPhraseFreq times become nodes.
	Phrases bool
}

const (
	// fkWeight is the weight of a foreign-key edge.
	fkWeight = 1
	// minPhraseFreq is the corpus frequency a bigram needs to become a
	// phrase node.
	minPhraseFreq = 2
)

// isAssociation reports whether a table is pure linkage: key-less,
// text-less, with at least two outgoing references (e.g. an authorship
// or citation table). Such a table contributes direct edges between the
// tuples it links instead of tuple nodes — matching the paper's Figure
// 3, where authors connect straight to their papers.
func isAssociation(s relstore.Schema) bool {
	if s.PrimaryKey != "" || len(s.ForeignKeys) < 2 {
		return false
	}
	for _, c := range s.Columns {
		if c.Text != relstore.TextNone {
			return false
		}
	}
	return true
}

// Build constructs the TAT graph from a loaded database. Columns are
// handled per their TextMode: segmented columns contribute one term node
// per distinct token, with the token's count in the value as the edge
// weight; atomic columns one node for the whole normalized value; and
// TextNone columns none. The same scan counts each textual field's
// documents, the N of its term nodes' idf: the tuples whose value
// yields a term.
func Build(db *relstore.Database, opts Options) (*Graph, error) {
	tok := opts.Tokenizer
	if tok == nil {
		tok = textindex.NewTokenizer()
	}
	tg := &Graph{
		termNodes:   make(map[classKey]graph.NodeID),
		tupleNodes:  make(map[relstore.TupleID]graph.NodeID),
		byText:      make(map[string][]graph.NodeID),
		termClasses: make(map[string]bool),
		db:          db,
		tok:         tok,
	}
	b := graph.NewBuilder()
	classIDs := make(map[string]int32)
	classOf := func(name string) int32 {
		id, ok := classIDs[name]
		if !ok {
			id = int32(len(tg.classNames))
			classIDs[name] = id
			tg.classNames = append(tg.classNames, name)
			tg.classDocs = append(tg.classDocs, 0)
		}
		return id
	}

	// First pass: create tuple nodes (skipping collapsed association
	// tables) so FK edges can be added while scanning, and tokenize each
	// segmented value, keeping the tokens in scan order for the second
	// pass. With Phrases it also counts bigrams per segmented field, so
	// only recurring phrases become nodes.
	collapsed := make(map[string]bool)
	phraseFreq := make(map[classKey]int)
	var segmented [][]string
	for _, tableName := range db.TableNames() {
		table, err := db.Table(tableName)
		if err != nil {
			return nil, err
		}
		schema := table.Schema()
		if isAssociation(schema) {
			collapsed[tableName] = true
			continue
		}
		tableClass := classOf(tableName)
		tg.classDocs[tableClass] = table.Len()
		fields := fieldLabels(tableName, schema)
		table.Scan(func(tp relstore.Tuple) bool {
			id := b.AddNode()
			tg.kinds = append(tg.kinds, KindTuple)
			tg.classes = append(tg.classes, tableClass)
			tg.terms = append(tg.terms, "")
			tg.tuples = append(tg.tuples, tp.ID)
			tg.tupleNodes[tp.ID] = id
			for ci, col := range schema.Columns {
				if col.Text != relstore.TextSegmented {
					continue
				}
				toks := tok.Tokenize(tp.Values[ci].Text())
				segmented = append(segmented, toks)
				for i := 0; opts.Phrases && i+1 < len(toks); i++ {
					phraseFreq[classKey{field: fields[ci], term: toks[i] + " " + toks[i+1]}]++
				}
			}
			return true
		})
	}

	addTermNode := func(field, term string) graph.NodeID {
		key := classKey{field: field, term: term}
		if id, ok := tg.termNodes[key]; ok {
			return id
		}
		id := b.AddNode()
		tg.kinds = append(tg.kinds, KindTerm)
		tg.classes = append(tg.classes, classOf(field))
		tg.terms = append(tg.terms, term)
		tg.tuples = append(tg.tuples, relstore.TupleID{})
		tg.termNodes[key] = id
		tg.byText[term] = append(tg.byText[term], id)
		tg.termClasses[field] = true
		return id
	}

	// Second pass: occurrence edges, field document counts and FK
	// edges. Collapsed association tuples contribute pairwise edges
	// between the tuples they reference instead.
	fieldDocs := make(map[string]int)
	var refs []relstore.TupleID
	for _, tableName := range db.TableNames() {
		table, err := db.Table(tableName)
		if err != nil {
			return nil, err
		}
		schema := table.Schema()
		var scanErr error
		if collapsed[tableName] {
			table.Scan(func(tp relstore.Tuple) bool {
				refs, err = db.References(tp.ID, refs)
				if err != nil {
					scanErr = err
					return false
				}
				for i := 0; i < len(refs); i++ {
					for j := i + 1; j < len(refs); j++ {
						a, b1 := tg.tupleNodes[refs[i]], tg.tupleNodes[refs[j]]
						if a == b1 {
							continue // self-citation style rows
						}
						if err := b.AddEdge(a, b1, fkWeight); err != nil {
							scanErr = err
							return false
						}
					}
				}
				return true
			})
			if scanErr != nil {
				return nil, scanErr
			}
			continue
		}
		fields := fieldLabels(tableName, schema)
		table.Scan(func(tp relstore.Tuple) bool {
			tupleNode := tg.tupleNodes[tp.ID]
			for ci, col := range schema.Columns {
				if col.Text == relstore.TextNone {
					continue
				}
				field := fields[ci]
				switch col.Text {
				case relstore.TextSegmented:
					toks := segmented[0]
					segmented = segmented[1:]
					if len(toks) == 0 {
						continue
					}
					fieldDocs[field]++
					counts := make(map[string]int, len(toks))
					for _, w := range toks {
						counts[w]++
					}
					for _, w := range toks {
						if counts[w] == 0 {
							continue // already added for this tuple
						}
						tn := addTermNode(field, w)
						if err := b.AddEdge(tupleNode, tn, float64(counts[w])); err != nil {
							scanErr = err
							return false
						}
						counts[w] = 0
					}
					if opts.Phrases {
						seenPhrase := make(map[string]bool)
						for i := 0; i+1 < len(toks); i++ {
							phrase := toks[i] + " " + toks[i+1]
							if seenPhrase[phrase] {
								continue
							}
							if phraseFreq[classKey{field: field, term: phrase}] < minPhraseFreq {
								continue
							}
							seenPhrase[phrase] = true
							tn := addTermNode(field, phrase)
							if err := b.AddEdge(tupleNode, tn, 1); err != nil {
								scanErr = err
								return false
							}
						}
					}
				case relstore.TextAtomic:
					v := textindex.Normalize(tp.Values[ci].Text())
					if v == "" {
						continue
					}
					fieldDocs[field]++
					tn := addTermNode(field, v)
					if err := b.AddEdge(tupleNode, tn, 1); err != nil {
						scanErr = err
						return false
					}
				}
			}
			refs, err = db.References(tp.ID, refs)
			if err != nil {
				scanErr = err
				return false
			}
			for _, ref := range refs {
				if err := b.AddEdge(tupleNode, tg.tupleNodes[ref], fkWeight); err != nil {
					scanErr = err
					return false
				}
			}
			return true
		})
		if scanErr != nil {
			return nil, scanErr
		}
	}

	// A counted field has term nodes, hence a class.
	for field, n := range fieldDocs {
		tg.classDocs[classIDs[field]] = n
	}
	tg.g = b.Build()
	// Per-node idf and per-class member lists: every walk reads them
	// (ranking discount, same-class cut), so they are derived once here.
	tg.idf = make([]float64, len(tg.classes))
	tg.classNodes = make([][]graph.NodeID, len(tg.classNames))
	for v, c := range tg.classes {
		docs := float64(tg.classDocs[c])
		deg := float64(tg.g.Degree(graph.NodeID(v)))
		if deg == 0 {
			deg = 1
		}
		if docs < deg {
			docs = deg
		}
		tg.idf[v] = math.Log(1 + docs/deg)
		tg.classNodes[c] = append(tg.classNodes[c], graph.NodeID(v))
	}
	return tg, nil
}

// fieldLabels returns the "table.column" label of each column of a
// table, by column index.
func fieldLabels(table string, s relstore.Schema) []string {
	out := make([]string, len(s.Columns))
	for i, col := range s.Columns {
		out[i] = table + "." + col.Name
	}
	return out
}

// CSR returns the underlying frozen graph.
func (tg *Graph) CSR() *graph.Graph { return tg.g }

// DB returns the database the graph was built from.
func (tg *Graph) DB() *relstore.Database { return tg.db }

// NumNodes returns the total node count (tuples + terms).
func (tg *Graph) NumNodes() int { return tg.g.NumNodes() }

// NumTermNodes returns the number of term nodes.
func (tg *Graph) NumTermNodes() int { return len(tg.termNodes) }

// TermNodeIDs returns every term node id in ascending order — the
// universe the offline precompute pass warms.
func (tg *Graph) TermNodeIDs() []graph.NodeID {
	out := make([]graph.NodeID, 0, len(tg.termNodes))
	for _, id := range tg.termNodes {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TermTexts returns the distinct normalized term texts across all
// fields, sorted — the graph's vocabulary as users would type it.
func (tg *Graph) TermTexts() []string {
	out := make([]string, 0, len(tg.byText))
	for text := range tg.byText {
		out = append(out, text)
	}
	sort.Strings(out)
	return out
}

// Kind reports whether the node is a tuple or a term node.
func (tg *Graph) Kind(v graph.NodeID) NodeKind { return tg.kinds[v] }

// Class returns the node's class label: its table name for tuple nodes,
// its field label ("table.column") for term nodes.
func (tg *Graph) Class(v graph.NodeID) string { return tg.classNames[tg.classes[v]] }

// SameClass reports whether two nodes share a class. Similar-term
// extraction only keeps same-class results (paper §IV-B1).
func (tg *Graph) SameClass(a, b graph.NodeID) bool { return tg.classes[a] == tg.classes[b] }

// TermText returns the term text of a term node ("" for tuple nodes).
func (tg *Graph) TermText(v graph.NodeID) string { return tg.terms[v] }

// TupleID returns the tuple identity of a tuple node. The second result
// is false for term nodes.
func (tg *Graph) TupleID(v graph.NodeID) (relstore.TupleID, bool) {
	if tg.kinds[v] != KindTuple {
		return relstore.TupleID{}, false
	}
	return tg.tuples[v], true
}

// TermNode resolves a term within one field.
func (tg *Graph) TermNode(field, term string) (graph.NodeID, bool) {
	id, ok := tg.termNodes[classKey{field: field, term: textindex.Normalize(term)}]
	return id, ok
}

// TupleNode resolves a tuple node.
func (tg *Graph) TupleNode(id relstore.TupleID) (graph.NodeID, bool) {
	v, ok := tg.tupleNodes[id]
	return v, ok
}

// FindTerm returns all term nodes whose text equals the normalized
// input, across fields, in creation order. Single words that miss are
// retried through the graph's tokenizer, so query terms receive the same
// normalization (e.g. plural folding) the indexed text did. The most
// frequent node is usually the intended one; ResolveTerm picks it.
func (tg *Graph) FindTerm(text string) []graph.NodeID {
	// Texts are stored normalized, so one that is found as given is its
	// own normal form: the serving path's mended terms resolve here,
	// without Normalize's allocation.
	if nodes := tg.byText[text]; nodes != nil {
		return nodes
	}
	norm := textindex.Normalize(text)
	if nodes := tg.byText[norm]; nodes != nil {
		return nodes
	}
	if toks := tg.tok.Tokenize(norm); len(toks) == 1 && toks[0] != norm {
		return tg.byText[toks[0]]
	}
	return nil
}

// ResolveTerm returns the term node a text stands for: of the nodes
// FindTerm finds, the most frequent, and the first in FindTerm order on
// a tie. ok is false when the text occurs nowhere. The reformulator
// resolves query terms by it and the mender anchors its context scores
// by it, so both read a text as the same node.
func (tg *Graph) ResolveTerm(text string) (v graph.NodeID, ok bool) {
	nodes := tg.FindTerm(text)
	if len(nodes) == 0 {
		return 0, false
	}
	v = nodes[0]
	for _, u := range nodes[1:] {
		if tg.Freq(u) > tg.Freq(v) {
			v = u
		}
	}
	return v, true
}

// Freq returns the occurrence frequency of a node: for a term node the
// number of tuples it appears in (its degree — all its edges are
// occurrence edges); for a tuple node 1.
func (tg *Graph) Freq(v graph.NodeID) int {
	if tg.kinds[v] == KindTerm {
		return tg.g.Degree(v)
	}
	return 1
}

// IDF returns the inverse-occurrence weight of a node within its class:
// ln(1 + classDocs/degree). Rare terms (and rarely referenced tuples)
// score high; hub nodes score low.
func (tg *Graph) IDF(v graph.NodeID) float64 { return tg.idf[v] }

// ClassMembers returns every node of v's class (v included) in
// ascending order, as a read-only view — the universe a similar-term
// row is cut from.
func (tg *Graph) ClassMembers(v graph.NodeID) []graph.NodeID {
	return tg.classNodes[tg.classes[v]]
}

// DisplayLabel renders a node for humans: the term text for term nodes,
// the first textual attribute for tuple nodes.
func (tg *Graph) DisplayLabel(v graph.NodeID) string {
	if tg.kinds[v] == KindTerm {
		return tg.Class(v) + ":" + tg.terms[v]
	}
	id := tg.tuples[v]
	table, err := tg.db.Table(id.Table)
	if err != nil {
		return id.String()
	}
	tp, err := table.Tuple(id.Row)
	if err != nil {
		return id.String()
	}
	for ci, col := range table.Schema().Columns {
		if col.Text != relstore.TextNone {
			return id.Table + ":" + tp.Values[ci].Text()
		}
	}
	return id.String()
}

// HasTermClass reports whether the field label ("table.column") has at
// least one term node — i.e. whether restricting a close-terms query to
// that field can ever match.
func (tg *Graph) HasTermClass(field string) bool { return tg.termClasses[field] }

// TermClasses returns the field labels that have term nodes, sorted.
func (tg *Graph) TermClasses() []string {
	out := make([]string, 0, len(tg.termClasses))
	for f := range tg.termClasses {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// Classes returns all class labels in creation order.
func (tg *Graph) Classes() []string {
	out := make([]string, len(tg.classNames))
	copy(out, tg.classNames)
	return out
}

// ClassSize returns how many nodes belong to the named class.
func (tg *Graph) ClassSize(name string) int {
	for i, n := range tg.classNames {
		if n == name {
			return len(tg.classNodes[i])
		}
	}
	return 0
}
