package live

import (
	"fmt"

	"kqr/internal/artifact"
	"kqr/internal/graph"
)

// ArtifactSnapshot assembles the artifact codec's snapshot of one
// generation's offline stage: the full vocabulary plus, when the
// generation is complete, a copy of its similarity and closeness
// tables (a lazy generation's rows are a cache, not tables), stamped
// with the caller's fingerprint.
// The root package's SaveArtifacts and the replication leader's
// bootstrap stream both funnel through it.
func ArtifactSnapshot(g *Generation, fingerprint string) *artifact.Snapshot {
	snap := &artifact.Snapshot{Fingerprint: fingerprint, Classes: g.TG.Classes()}
	if g.Complete() {
		snap.Tables[g.SimKind] = g.Sim.Rows()
		snap.Tables[artifact.TableCloseness] = g.Clos.Rows()
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
	return snap
}

// RestoreArtifact validates the snapshot's vocabulary against the
// generation's graph node by node, then hands the tables to the stores,
// which index them as they are and become complete. A snapshot carries
// both tables whole or none (a lazy generation's, which leaves the
// stores as they are); anything between is refused. The vocabulary
// check backstops any fingerprint check the caller ran: node ids are
// only meaningful if every term node still carries the same text and
// class. Failures wrap artifact.ErrFingerprint.
func RestoreArtifact(g *Generation, snap *artifact.Snapshot) error {
	if err := ValidateVocabulary(g, snap.Classes, snap.Vocabulary); err != nil {
		return err
	}
	sim, clos := snap.Tables[g.SimKind], snap.Tables[artifact.TableCloseness]
	if sim == nil && clos == nil {
		return nil
	}
	if err := CheckTable(g, g.SimKind, sim.Has); err != nil {
		return err
	}
	if err := CheckTable(g, artifact.TableCloseness, clos.Has); err != nil {
		return err
	}
	g.Sim.Load(sim)
	g.Clos.Load(clos)
	return nil
}

// CheckTable refuses a table that lacks (by has) one of g's term rows.
// Failures wrap artifact.ErrFingerprint.
func CheckTable(g *Generation, kind artifact.TableKind, has func(graph.NodeID) bool) error {
	for _, v := range g.TG.TermNodeIDs() {
		if !has(v) {
			return fmt.Errorf("%w: snapshot %s table has no row for term %q (node %d); a snapshot holds every term's row or no table",
				artifact.ErrFingerprint, kind, g.TG.TermText(v), v)
		}
	}
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
