// Package frametest holds the corruption matrix every binary format in
// the repo is tested against: one driver, one set of rules, so a new
// format (or a rebuilt reader) is held to what the others are.
package frametest

import (
	"bytes"
	"errors"
	"testing"
)

// Format describes one format to the matrix.
type Format struct {
	// Decode parses a complete input. It returns nil only for a full,
	// valid parse, and must itself fail the test if an error comes with
	// partly decoded state.
	Decode func(data []byte) error
	// Typed lists the errors.Is targets a failure may be classified as;
	// an error matching none of them is untyped and fails the matrix.
	Typed []error
	// CleanCut reports whether a prefix of the given length is a valid
	// shorter input — the stream ends on a section, record or frame
	// boundary. Nil means no proper prefix is.
	CleanCut func(n int) bool
	// FlipOK reports whether flipping the byte at i may go unnoticed by
	// Decode (bytes a reader does not look at by design). Nil means
	// every flip must fail.
	FlipOK func(i int) bool
}

// Run drives Decode over enc, over every single-byte flip of it and
// over every proper prefix: enc itself must parse; each flip and each
// prefix must either fail with a typed error or be one the format
// declares acceptable; nothing may panic.
func (f Format) Run(t *testing.T, enc []byte) {
	t.Helper()
	if err := f.Decode(enc); err != nil {
		t.Fatalf("intact input does not decode: %v", err)
	}
	for i := range enc {
		bad := bytes.Clone(enc)
		bad[i] ^= 0x40
		err := f.Decode(bad)
		switch {
		case err == nil && (f.FlipOK == nil || !f.FlipOK(i)):
			t.Fatalf("flip at byte %d of %d went undetected", i, len(enc))
		case err != nil && !f.IsTyped(err):
			t.Fatalf("flip at byte %d: untyped error %v", i, err)
		}
	}
	for cut := 0; cut < len(enc); cut++ {
		err := f.Decode(enc[:cut])
		switch {
		case err == nil && (f.CleanCut == nil || !f.CleanCut(cut)):
			t.Fatalf("prefix of %d bytes (of %d) parsed cleanly off a boundary", cut, len(enc))
		case err != nil && f.CleanCut != nil && f.CleanCut(cut):
			t.Fatalf("prefix of %d bytes ends on a boundary but failed: %v", cut, err)
		case err != nil && !f.IsTyped(err):
			t.Fatalf("prefix of %d bytes: untyped error %v", cut, err)
		}
	}
}

// IsTyped reports whether err matches one of the format's Typed targets.
func (f Format) IsTyped(err error) bool {
	for _, target := range f.Typed {
		if errors.Is(err, target) {
			return true
		}
	}
	return false
}
