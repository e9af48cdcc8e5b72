// Package repl replicates a live kqr index from one leader to any
// number of followers, turning the single-process generation machinery
// of internal/live into a horizontally scalable serving fleet: the
// leader pays for rebuilds and promotions once, followers replay them
// in lockstep and serve reads.
//
// The subsystem has three parts.
//
// # Delta log
//
// The leader journals every epoch transition into an ordered, durable
// delta log (Log): length-prefixed, CRC-checksummed records appended to
// segment files that are fsynced per append and rotated atomically
// (header written to a temp file, renamed into place, directory
// synced). A record carries the transition's epoch and either the
// promoted delta batch or, for deltaless transitions such as snapshot
// reloads, just the epoch bump. The journal hook runs under the
// manager's promotion lock *before* the new generation becomes current
// (write-ahead order), so every epoch a reader can observe is already
// durable in the log. Records are identified by a dense index starting
// at 0; the log is never compacted, so any follower offset stays
// resumable.
//
// # Leader endpoints
//
// Leader serves the replication protocol over HTTP:
//
//	GET /repl/snapshot       bootstrap stream: epoch, resume offset,
//	                         corpus dump, offline-table artifact
//	GET /repl/log?from=N     long-lived record stream from index N,
//	                         with heartbeats while idle
//	GET /repl/status         JSON status (epoch, log end, segments)
//
// The snapshot pairs a generation with the log index of the first
// record *after* it, so a follower that bootstraps at epoch E and tails
// from that index replays exactly the transitions E+1, E+2, ….
//
// # Follower
//
// Follower bootstraps from the snapshot (rebuilding the corpus
// row-for-row and restoring the offline tables, so it never recomputes
// the expensive offline stage), then tails the log: each delta record
// is ingested and promoted through the follower's own live.Manager,
// which must land on exactly the record's epoch — lockstep. Generation
// builds are deterministic functions of the corpus and config, so a
// follower's tables are bit-identical to the leader's. The tail
// reconnects under internal/stream's session rule, resuming from the
// next unapplied index; records are applied synchronously while the
// stream is read, so TCP flow control backpressures the leader when a
// follower falls behind. The epoch-tagged serving cache above the
// engine makes follower promotion cache-safe with no extra work.
package repl
