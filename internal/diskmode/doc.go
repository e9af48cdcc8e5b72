// Package diskmode serves packed similarity and closeness tables from
// a KQRART v2 paged snapshot without holding the table payloads in
// memory, so one engine can serve corpora whose tables exceed RAM.
//
// A v2 file (internal/artifact.WritePaged) splits every table into a
// small resident prelude — the table's packed.Index (CSR offsets,
// presence bitmap), page index, per-page CRCs — and a page-aligned
// entry blob. Open reads the preludes and keeps only them resident.
// Store.Table hands out a packed.Table over each prelude's index whose
// packed.Pages is the store's page cache, so the row stores publish it
// via Install and the query hot path runs the very code, over the very
// bytes, it runs against a RAM table.
//
// The package pins pages and knows nothing of entries. packed asks it
// for a row's entries; it asks the file's artifact.PagedTable which
// page holds them and where they sit in it, and looks the page up in a
// fixed arena of page frames, each the size of the file's largest page,
// allocated on first use up to Options.Budget minus the resident index
// bytes and never freed — total resident table state never exceeds the
// budget. A miss takes a free frame or the clock's victim and has
// PagedTable.ReadPage read the page into it with a plain ReadAt and
// verify it against its stored CRC, outside the arena lock, then maps
// it. A short read (a file shrunk under the store: a corrupt page,
// never a SIGBUS) or a CRC mismatch hands the frame back, is counted
// and answers ok == false. Pages are row-aligned (no row spans two
// pages), so a row is one contiguous run of bytes in one frame.
//
// Pin returns those bytes with the frame read-locked; packed copies
// the row out or probes it and unlocks. No slice into a frame escapes,
// so an evicted frame is reused the moment its last reader unlocks it:
// a fault allocates nothing once its frame exists, and the page cache
// makes no garbage.
//
// Closing a Store while readers are mid-fault is the promotion path's
// normal case, not an error: Close marks the store draining, waits for
// in-flight readers to release, then closes the file. A reader that
// arrives after the drain gets ok == false — the same answer
// as an unwarmed term — and falls back to live computation, which
// lands on the identical float32-quantized grid.
package diskmode
