// Package mend repairs messy keyword queries before reformulation.
//
// The reformulation pipeline (internal/core) assumes every query term
// resolves to a vocabulary term node of the TAT graph; a misspelled,
// run-together, or over-split token silently falls off the graph and
// contributes nothing. Package mend closes that gap with two
// offline-derived structures built once per generation:
//
//   - Index: a SymSpell-style deletion-neighborhood index over the
//     generation's vocabulary. Every vocabulary term contributes the
//     deletion variants of its first few runes (up to two deletions),
//     so a lookup generates the token's own deletion variants and
//     intersects key sets instead of scanning the vocabulary. Hits are
//     verified with a true Damerau-Levenshtein (optimal string
//     alignment) distance and ranked by closeness of the edit and
//     corpus frequency.
//
//   - Mender: a deterministic dynamic program over token boundaries
//     that chooses, per token, between keeping it (vocabulary-resident
//     tokens are never touched), spell-correcting it against the
//     Index, splitting a run-together token into vocabulary words,
//     merging an over-split bigram back together, or dropping it as
//     unmendable. The output carries per-token provenance and a
//     confidence score.
//
// Two invariants shape the design. First, mending never alters a
// token that already resolves in the vocabulary, so queries made
// entirely of valid terms pass through byte-identically. Second,
// every term a mend emits is vocabulary-resident, which makes mending
// idempotent: Mend(Mend(q)) == Mend(q), because the second pass sees
// only resolvable tokens and keeps them all.
//
// The index is built inside live.Manager.Build alongside the packed
// tables, so it participates in live promotion, snapshot reload,
// replication lockstep, and disk-mode memory budgets exactly like the
// other offline-derived structures.
package mend
