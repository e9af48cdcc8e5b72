// Package diskmode serves packed similarity and closeness tables from
// a KQRART v2 paged snapshot without holding the table payloads in
// memory, so one engine can serve corpora whose tables exceed RAM.
//
// A v2 file (internal/artifact.WritePaged) splits every table into a
// small resident prelude — CSR offsets, presence bitmap, page index,
// per-page CRCs — and a page-aligned entry blob. Open reads the
// preludes and keeps only them resident; Store's table views satisfy
// packed.Table, so the row stores publish them via Install and the
// query hot path is byte-for-byte the code it runs against RAM-backed
// tables.
//
// A Row call walks the resident index, faults the one page holding the
// row with a plain ReadAt, verifies the page against its stored CRC,
// decodes it into typed node/score arrays and admits it to a sharded
// LRU cache bounded by Options.Budget minus the resident index bytes —
// total resident table state never exceeds the budget. A short read (a
// file shrunk under the store: a corrupt page, never a SIGBUS) or a CRC
// mismatch is counted and answers ok == false. Pages are row-aligned
// (no row spans two pages), so a row is always one contiguous view into
// one decoded page; evicted pages stay alive for exactly as long as a
// reader still holds slices into them, courtesy of the garbage
// collector.
//
// Closing a Store while readers are mid-fault is the promotion path's
// normal case, not an error: Close marks the store draining, waits for
// in-flight readers to release, then closes the file. A reader that
// arrives after the drain gets ok == false from Row — the same answer
// as an unwarmed term — and falls back to live computation, which
// lands on the identical float32-quantized grid.
package diskmode
