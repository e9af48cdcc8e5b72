package live

import (
	"fmt"
	"sort"

	"kqr/internal/artifact"
	"kqr/internal/cooccur"
	"kqr/internal/graph"
	"kqr/internal/packed"
	"kqr/internal/randomwalk"
)

// ArtifactSnapshot assembles the artifact codec's transient snapshot of
// one generation's offline stage: the full vocabulary plus whichever
// similarity table the generation's mode maintains, and the closeness
// table, stamped with the caller's fingerprint. The root package's
// SaveArtifacts and the replication leader's bootstrap stream both
// funnel through it.
func ArtifactSnapshot(g *Generation, fingerprint string) (*artifact.Snapshot, error) {
	snap := &artifact.Snapshot{
		Fingerprint: fingerprint,
		Classes:     g.TG.Classes(),
		Closeness:   make(map[graph.NodeID]map[graph.NodeID]float64),
	}
	classIndex := make(map[string]int32, len(snap.Classes))
	for i, c := range snap.Classes {
		classIndex[c] = int32(i)
	}
	for _, node := range g.TG.TermNodeIDs() {
		snap.Vocabulary = append(snap.Vocabulary, artifact.Term{
			Node:  node,
			Class: classIndex[g.TG.Class(node)],
			Text:  g.TG.TermText(node),
		})
	}
	sim := make(map[graph.NodeID][]graph.Scored)
	g.Sim.Each(func(v graph.NodeID, nodes []graph.NodeID, scores []float32) {
		sim[v] = packed.Scored(nodes, scores, 0)
	})
	switch g.Sim.(type) {
	case *randomwalk.Extractor:
		snap.Walk = sim
	case *cooccur.Extractor:
		snap.Cooccur = sim
	default:
		return nil, fmt.Errorf("live: similarity provider %T does not support snapshots", g.Sim)
	}
	g.Clos.Each(func(v graph.NodeID, nodes []graph.NodeID, scores []float32) {
		vec := make(map[graph.NodeID]float64, len(nodes))
		for i, u := range nodes {
			vec[u] = float64(scores[i])
		}
		snap.Closeness[v] = vec
	})
	return snap, nil
}

// RestoreArtifact validates the snapshot's vocabulary against the
// generation's graph node by node, then bulk-loads the tables into the
// stores. The vocabulary check backstops any fingerprint check the
// caller ran: node ids are only meaningful if every term node still
// carries the same text and class. Failures wrap
// artifact.ErrFingerprint.
func RestoreArtifact(g *Generation, snap *artifact.Snapshot) error {
	if err := ValidateVocabulary(g, snap.Classes, snap.Vocabulary); err != nil {
		return err
	}
	var sim map[graph.NodeID][]graph.Scored
	switch g.Sim.(type) {
	case *randomwalk.Extractor:
		if sim = snap.Walk; sim == nil {
			return fmt.Errorf("%w: snapshot has no random-walk section", artifact.ErrFingerprint)
		}
	case *cooccur.Extractor:
		if sim = snap.Cooccur; sim == nil {
			return fmt.Errorf("%w: snapshot has no co-occurrence section", artifact.ErrFingerprint)
		}
	default:
		return fmt.Errorf("live: similarity provider %T does not support snapshots", g.Sim)
	}
	rows := make(map[graph.NodeID]packed.Row, len(sim))
	for v, list := range sim {
		rows[v] = packed.NewRow(list)
	}
	g.Sim.Load(rows)

	rows = make(map[graph.NodeID]packed.Row, len(snap.Closeness))
	var list []graph.Scored
	for v, vec := range snap.Closeness {
		list = list[:0]
		for u, c := range vec {
			list = append(list, graph.Scored{Node: u, Score: c})
		}
		sort.Slice(list, func(i, j int) bool { return list[i].Node < list[j].Node })
		rows[v] = packed.NewRow(list)
	}
	g.Clos.Load(rows)
	return nil
}

// ValidateVocabulary checks a snapshot's (or paged index's) vocabulary
// against the generation's graph node by node — the backstop behind
// every restore and disk attach: node ids in the tables are only
// meaningful if every term node still carries the same text and class.
// Failures wrap artifact.ErrFingerprint.
func ValidateVocabulary(g *Generation, classes []string, vocab []artifact.Term) error {
	if len(vocab) != g.TG.NumTermNodes() {
		return fmt.Errorf("%w: snapshot has %d vocabulary terms, graph has %d",
			artifact.ErrFingerprint, len(vocab), g.TG.NumTermNodes())
	}
	for _, t := range vocab {
		if int(t.Node) < 0 || int(t.Node) >= g.TG.NumNodes() ||
			int(t.Class) >= len(classes) ||
			g.TG.TermText(t.Node) != t.Text ||
			g.TG.Class(t.Node) != classes[t.Class] {
			return fmt.Errorf("%w: vocabulary entry for node %d (%q) does not match the graph",
				artifact.ErrFingerprint, t.Node, t.Text)
		}
	}
	return nil
}
