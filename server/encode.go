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

// appendJSONString appends s as a JSON string literal: quotes, the
// two-character escapes \\ \" \b \f \n \r \t, \u00XX for the other
// control bytes and for < > & (json.Marshal's HTML-safe default),
// U+2028 and U+2029 escaped, and each invalid UTF-8 byte replaced by
// \ufffd.
func appendJSONString[S []byte | string](dst []byte, s S) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
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

// appendJSONStrings appends a non-nil string slice as a JSON array.
func appendJSONStrings(dst []byte, ss []string) []byte {
	dst = append(dst, '[')
	for i, s := range ss {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendJSONString(dst, s)
	}
	return append(dst, ']')
}

// appendJSONQuery appends, as a JSON string, the terms joined into one
// parseable query — kqr.Suggestion.String's rendering.
func appendJSONQuery(dst []byte, terms []string) []byte {
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
	dst = appendJSONStrings(dst, sg.Terms)
	dst = append(dst, `,"query":`...)
	dst = appendJSONQuery(dst, sg.Terms)
	dst = append(dst, `,"score":`...)
	dst, err := appendJSONFloat(dst, sg.Score)
	return append(dst, '}'), err
}
