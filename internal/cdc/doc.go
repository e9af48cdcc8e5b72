// Package cdc implements streamed change-data-capture ingestion: a
// persistent binary delta stream from an external change producer into
// the live index pipeline, the way a logical-decoding plugin ships
// database changes downstream.
//
// Both halves of the pipe live here. The Receiver is the server side:
// it terminates long-lived POST /cdc/stream connections, decodes KQRCDC
// frames, and stages delta batches through a live.Manager under
// monotone per-source sequence numbers — a batch at or below the
// source's high-water mark is acknowledged but dropped, so staging is
// exactly-once across reconnects, and acknowledgements are withheld
// while the manager's pending backlog exceeds a bound, so a fast
// producer is backpressured instead of overrunning promotion. The
// Feeder is the client side: it batches deltas from a deterministic
// Source, keeps a bounded in-flight window keyed on cumulative acks,
// reconnects under internal/stream's session rule, and resumes from the
// receiver's last-acknowledged sequence after a crash — the Source
// replays the suffix, so no local spool file is needed.
//
// # Wire format
//
// A stream opens, in each direction, with the 6-byte magic "KQRCDC"
// and a little-endian u16 format version. Every subsequent frame is a
// u32 body length, the body, and a u32 CRC-32 (IEEE) of the body — the
// record framing of internal/repl's delta log. The body is a u8 frame
// kind followed by a kind-specific payload; see DESIGN.md §14 for the
// byte-level layout and the protocol state machine.
//
// The handshake carries a schema fingerprint (SchemaFingerprint):
// feeder and receiver must agree on the corpus shape, but not on row
// counts — unlike replication, CDC is exactly the mechanism by which
// row counts change, so the fingerprint covers schemas only.
package cdc
