// Package artifact defines the persistent snapshot format for the
// offline stage of the reformulation pipeline: the term vocabulary,
// the random-walk similar-term tables, the closeness tables, and the
// co-occurrence count tables that the extractors compute over the TAT
// graph (paper §IV). Persisting them converts the offline stage from a
// per-process cost into a durable artifact — a replica restarts by
// streaming the snapshot from disk instead of re-walking the graph
// (the 27.7 MB snapshot of the system benchmark's -papers 2000 corpus
// loads in ~0.08 s and saves in ~0.03 s; the offline build it replaces
// takes ~0.8 s — artifact.load_s, artifact.save_s and offline_build_s in
// BENCH_system.json).
//
// A Snapshot holds each table as packed.Rows, the row store's own
// serial form — its rows' entry bytes in packed's one encoding — and
// the store indexes a loaded one in place. A v2 (paged) section is
// those bytes: the writer emits them as the blob and the reader reads
// the blob back into the rows' entries, checking each page's CRC,
// without touching an entry. A v1 section stores f64 scores, so its
// writer widens each entry and its reader encodes each entry as it
// reads. Nothing on either path sorts or builds a map. All byte-level
// work — running CRCs, byte budgets, typed errors — is internal/frame's.
//
// # File format
//
// A snapshot is a binary file with a fixed header followed by
// length-prefixed, individually checksummed sections (all integers are
// little-endian):
//
//	magic "KQRART" (6 bytes)
//	format version (uint16)
//	fingerprint length (uint32), fingerprint bytes (UTF-8)
//	CRC-32/IEEE of every preceding header byte (uint32)
//
//	then, repeated until EOF, one section per table kind:
//	  section id     (uint8: 1 vocabulary, 2 walk, 3 cooccur, 4 closeness)
//	  payload length (uint64)
//	  payload        (section-specific encoding, see DESIGN.md §10 "Framing")
//	  CRC-32/IEEE over the id, the length field and the payload (uint32)
//
// The fingerprint ties a snapshot to the exact corpus, graph shape and
// offline options it was computed over; callers pass their own
// fingerprint to Load and get ErrFingerprint on mismatch before any
// table is decoded. Unknown section ids are checksummed and skipped, so
// newer writers can add sections without breaking older readers.
//
// Write streams section by section through a running CRC — a v1
// section's length is known from its table's row and entry counts, so
// it is never buffered — and Load mirrors it, checking every count
// against the section's remaining bytes and growing buffers only as
// bytes arrive, so a multi-GB snapshot costs O(1) extra memory beyond
// the tables themselves and a hostile one costs what it holds.
//
// # Errors
//
// Corruption and mismatch are reported as wrapped sentinel errors —
// ErrMagic, ErrVersion, ErrChecksum, ErrTruncated (internal/frame's
// values, shared by every format in the repo) and ErrFingerprint —
// so callers can errors.Is-classify a failed load and fall back to
// live computation:
//
//	snap, err := artifact.Load(f, fp)
//	if errors.Is(err, artifact.ErrFingerprint) {
//	    // corpus changed since the snapshot was taken: recompute
//	}
package artifact
