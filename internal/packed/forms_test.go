package packed_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"kqr/internal/artifact"
	"kqr/internal/diskmode"
	"kqr/internal/graph"
	"kqr/internal/packed"
)

// sortedRow is the deterministic row of v in the form test: v%4 entries
// (so every fourth row is computed-but-empty), sorted by node id like a
// closeness row, so every form can be probed.
func sortedRow(v graph.NodeID) ([]graph.Scored, error) {
	var out []graph.Scored
	for i := 0; i < int(v)%4; i++ {
		out = append(out, graph.Scored{Node: v + graph.NodeID(2*i) + 1, Score: 1 / float64(i+3)})
	}
	return out, nil
}

// answers is everything a store says about its rows: each node's row as
// AppendRow copies it out, and as ProbeRow reads it for every id in
// probes — ids in the row and ids absent from it alike.
type answers struct {
	Nodes  [][]graph.NodeID
	Scores [][]float32
	Probes [][]float64
}

func answersOf(t *testing.T, s *packed.Store, n int) answers {
	t.Helper()
	probes := make([]graph.NodeID, 2*n+2)
	for i := range probes {
		probes[i] = graph.NodeID(i - 1)
	}
	var a answers
	for v := graph.NodeID(0); int(v) < n; v++ {
		nodes, scores, err := s.AppendRow(v, []graph.NodeID{}, []float32{})
		if err != nil {
			t.Fatal(err)
		}
		out := make([]float64, len(probes))
		if err := s.ProbeRow(v, probes, out); err != nil {
			t.Fatal(err)
		}
		a.Nodes, a.Scores, a.Probes = append(a.Nodes, nodes), append(a.Scores, scores), append(a.Probes, out)
	}
	return a
}

// TestStoreRowIdenticalInEveryForm is the store's one property: a row
// answers AppendRow and ProbeRow the same bits whether it was just
// computed (overlay), packed, bulk-loaded, read through an installed
// table, restored from a v1 or a v2 snapshot in RAM, or faulted from a
// v2 snapshot on disk — and a computed-empty row is held, never
// recomputed.
func TestStoreRowIdenticalInEveryForm(t *testing.T) {
	const n = 40
	fresh := func() *packed.Store { return packed.NewStore(n, sortedRow) }
	s := fresh()
	lazy := answersOf(t, s, n)
	if got := s.Computes(); got != n {
		t.Fatalf("computed %d rows for %d nodes", got, n)
	}
	if s.OverlayRows() != n {
		t.Fatalf("%d overlay rows for %d computed", s.OverlayRows(), n)
	}
	for v, nodes := range lazy.Nodes {
		if want, _ := sortedRow(graph.NodeID(v)); len(nodes) != len(want) {
			t.Fatalf("row %d has %d entries, want %d", v, len(nodes), len(want))
		}
	}
	same := func(form string, st *packed.Store) {
		t.Helper()
		if got := answersOf(t, st, n); !reflect.DeepEqual(got, lazy) {
			t.Fatalf("rows answer differently %s", form)
		}
		if st != s && st.Computes() != 0 {
			t.Fatalf("%s: %d held rows recomputed", form, st.Computes())
		}
	}

	s.Pack()
	same("across Pack", s)
	if tab := s.Published(); tab == nil || s.OverlayRows() != 0 {
		t.Fatalf("Pack left table %v / %d overlay rows", tab, s.OverlayRows())
	}
	for v := graph.NodeID(0); int(v) < n; v++ {
		if !s.Published().Has(v) {
			t.Fatalf("packed table has no row %d", v)
		}
	}

	// Export → bulk load into a fresh store (the artifact boundary).
	exported := s.Rows()
	if len(exported.Src) != n {
		t.Fatalf("Rows exported %d of %d rows", len(exported.Src), n)
	}
	loaded := fresh()
	loaded.Load(exported)
	same("across Rows → Load", loaded)

	// The loaded store's table installed into a third.
	viewed := fresh()
	viewed.Install(loaded.Published())
	same("through an installed table", viewed)

	// Through the snapshot files: v1 and v2 loaded in RAM, v2 on disk.
	snap := &artifact.Snapshot{Fingerprint: "forms"}
	snap.Tables[artifact.TableCloseness] = s.Rows()
	var v1, v2 bytes.Buffer
	if err := snap.Write(&v1); err != nil {
		t.Fatal(err)
	}
	if err := snap.WritePaged(&v2, artifact.PagedOptions{PageBytes: 64}); err != nil {
		t.Fatal(err)
	}
	for _, file := range []struct {
		form string
		enc  []byte
	}{{"from a v1 file loaded in RAM", v1.Bytes()}, {"from a v2 file loaded in RAM", v2.Bytes()}} {
		back, err := artifact.Load(bytes.NewReader(file.enc), "")
		if err != nil {
			t.Fatal(err)
		}
		st := fresh()
		st.Load(back.Tables[artifact.TableCloseness])
		same(file.form, st)
	}
	path := filepath.Join(t.TempDir(), "forms.kqrart")
	if err := os.WriteFile(path, v2.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	disk, err := diskmode.Open(path, "", diskmode.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	paged := fresh()
	paged.Install(disk.Table(artifact.TableCloseness))
	same("from a v2 file on disk", paged)
	if st := disk.Stats(); st.Misses == 0 {
		t.Fatalf("the disk form faulted no page: %+v", st)
	}
}

// TestV2LoadKeepsEntriesWithoutSlack: a v2 snapshot loaded in RAM reads
// each table's blob into entries with no spare capacity — the reader
// grows its buffer step by step and the last step ends at the blob's
// end — so Store.Load takes those entries over as they are instead of
// cloning them to shed the slack (a transient second copy of every
// table during a load). The tables here span several read steps.
func TestV2LoadKeepsEntriesWithoutSlack(t *testing.T) {
	const n = 12000 // 192 KB per table in 8-byte entries: three read steps
	rows := func(shift int) *packed.Rows {
		r := &packed.Rows{}
		for v := graph.NodeID(0); int(v) < n; v++ {
			raw := r.Append(v, 1+(int(v)+shift)%3)
			for i := 0; i < len(raw)/packed.EntrySize; i++ {
				packed.PutEntry(raw[i*packed.EntrySize:], v+graph.NodeID(i)+1, 0.5)
			}
		}
		return r
	}
	snap := &artifact.Snapshot{Fingerprint: "slack"}
	snap.Tables[artifact.TableWalk], snap.Tables[artifact.TableCloseness] = rows(0), rows(1)
	var v2 bytes.Buffer
	if err := snap.WritePaged(&v2, artifact.PagedOptions{}); err != nil {
		t.Fatal(err)
	}
	back, err := artifact.Load(bytes.NewReader(v2.Bytes()), "")
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []artifact.TableKind{artifact.TableWalk, artifact.TableCloseness} {
		entries := back.Tables[kind].Entries
		if len(entries) < 2*64<<10 {
			t.Fatalf("table %d: %d entry bytes, the test needs more than two read steps", kind, len(entries))
		}
		if cap(entries) != len(entries) {
			t.Errorf("table %d: %d entry bytes loaded into a %d-byte buffer", kind, len(entries), cap(entries))
		}
		st := packed.NewStore(n, sortedRow)
		st.Load(back.Tables[kind])
		if got := st.Published().RAMBytes(); len(got) != len(entries) || &got[0] != &entries[0] {
			t.Errorf("table %d: Store.Load serves a copy of the loaded entries", kind)
		}
	}
}
