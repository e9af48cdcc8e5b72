package server

import (
	"encoding/json"
	"math"
	"strconv"
	"unicode/utf8"

	"kqr"
)

// The append-style encoder of /api/reformulate. A body is appended to a
// pooled buffer straight from the engine's visitor — no suggestion
// slice, no response struct, no reflection — and must be, byte for byte,
// what json.Marshal made of the struct it replaced; encode_test.go keeps
// that struct as the oracle. Strings are escaped as encoding/json
// escapes them with HTML escaping on, floats formatted as it formats a
// float64.

const hexDigits = "0123456789abcdef"

// The classes of jsonClass, one per byte value.
const (
	bareByte   = iota // printable ASCII that neither JSON nor the query syntax touches
	spaceByte         // ' ': verbatim in JSON, but it splits (and quotes) a query term
	escapeByte        // JSON escapes it, or it starts a multi-byte UTF-8 sequence
)

// jsonClass classes every byte for appendJSONString's one table test and
// for bareTerm.
var jsonClass = func() (t [256]uint8) {
	for b := range t {
		switch {
		case b < ' ' || b >= utf8.RuneSelf || b == '"' || b == '\\' || b == '<' || b == '>' || b == '&':
			t[b] = escapeByte
		case b == ' ':
			t[b] = spaceByte
		}
	}
	return t
}()

// appendJSONString appends s as a JSON string literal: quotes, the
// two-character escapes \\ \" \b \f \n \r \t, \u00XX for the other
// control bytes and for < > & (json.Marshal's HTML-safe default),
// U+2028 and U+2029 escaped, and each invalid UTF-8 byte replaced by
// \ufffd.
func appendJSONString[S []byte | string](dst []byte, s S) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if jsonClass[b] != escapeByte {
			i++
			continue
		}
		if b < utf8.RuneSelf {
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(string(s[i:min(len(s), i+utf8.UTFMax)]))
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// bareTerm reports whether t is a bare term: non-empty and made only of
// bare bytes, so that JSON escapes nothing in it and
// kqr.Suggestion.String neither quotes nor escapes it.
func bareTerm(t string) bool {
	for i := 0; i < len(t); i++ {
		if jsonClass[t[i]] != bareByte {
			return false
		}
	}
	return t != ""
}

// appendJSONTerms appends a non-nil term slice as a JSON array and
// reports whether every term is bare. A bare term is copied between
// its quotes after the one scan that tells it bare.
func appendJSONTerms(dst []byte, terms []string) ([]byte, bool) {
	dst = append(dst, '[')
	allBare := true
	for i, t := range terms {
		if i > 0 {
			dst = append(dst, ',')
		}
		if bareTerm(t) {
			dst = append(dst, '"')
			dst = append(dst, t...)
			dst = append(dst, '"')
			continue
		}
		allBare = false
		dst = appendJSONString(dst, t)
	}
	return append(dst, ']'), allBare
}

// appendJSONQuery appends, as a JSON string, the terms joined into one
// parseable query — kqr.Suggestion.String's rendering. Bare terms are
// that rendering as they stand, joined by spaces, and need no escaping;
// any other term takes the rendering through the JSON escaper.
func appendJSONQuery(dst []byte, terms []string, bare bool) []byte {
	if bare {
		dst = append(dst, '"')
		for i, t := range terms {
			if i > 0 {
				dst = append(dst, ' ')
			}
			dst = append(dst, t...)
		}
		return append(dst, '"')
	}
	var a [256]byte // most queries fit; a longer one spills to the heap
	return appendJSONString(dst, kqr.Suggestion{Terms: terms}.AppendString(a[:0]))
}

// appendJSONFloat appends f as encoding/json formats a float64: the
// shortest representation that round-trips, in exponent form below 1e-6
// and from 1e21 up, with a two-digit exponent's leading zero dropped;
// NaN and the infinities are json.Marshal's UnsupportedValueError.
func appendJSONFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-09 to e-9
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && (dst[n-3] == '-' || dst[n-3] == '+') && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// appendSuggestion appends the i-th element of the "suggestions" array:
// {"terms":[…],"query":"…","score":…}, the query being the terms as one
// parseable string.
func appendSuggestion(dst []byte, i int, sg kqr.Suggestion) ([]byte, error) {
	if i > 0 {
		dst = append(dst, ',')
	}
	dst = append(dst, `{"terms":`...)
	dst, bare := appendJSONTerms(dst, sg.Terms)
	dst = append(dst, `,"query":`...)
	dst = appendJSONQuery(dst, sg.Terms, bare)
	dst = append(dst, `,"score":`...)
	dst, err := appendJSONFloat(dst, sg.Score)
	return append(dst, '}'), err
}
