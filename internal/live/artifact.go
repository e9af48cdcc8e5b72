package live

import (
	"fmt"

	"kqr/internal/artifact"
)

// ArtifactSnapshot assembles the artifact codec's snapshot of one
// generation's offline stage: the full vocabulary plus a copy of the
// rows of whichever similarity table the generation's mode maintains
// and of the closeness table, stamped with the caller's fingerprint.
// The root package's SaveArtifacts and the replication leader's
// bootstrap stream both funnel through it.
func ArtifactSnapshot(g *Generation, fingerprint string) *artifact.Snapshot {
	snap := &artifact.Snapshot{Fingerprint: fingerprint, Classes: g.TG.Classes()}
	snap.Tables[g.SimKind] = g.Sim.Rows()
	snap.Tables[artifact.TableCloseness] = g.Clos.Rows()
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
// which index them as they are. The vocabulary check backstops any
// fingerprint check the caller ran: node ids are only meaningful if
// every term node still carries the same text and class. Failures wrap
// artifact.ErrFingerprint.
func RestoreArtifact(g *Generation, snap *artifact.Snapshot) error {
	if err := ValidateVocabulary(g, snap.Classes, snap.Vocabulary); err != nil {
		return err
	}
	if snap.Tables[g.SimKind] == nil {
		return fmt.Errorf("%w: snapshot has no %s table", artifact.ErrFingerprint, g.SimKind)
	}
	g.Sim.Load(snap.Tables[g.SimKind])
	g.Clos.Load(snap.Tables[artifact.TableCloseness])
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
