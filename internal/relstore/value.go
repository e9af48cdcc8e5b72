package relstore

import (
	"fmt"
	"strconv"
)

// Kind enumerates the value types a column may hold.
type Kind int

const (
	// KindString is a textual value.
	KindString Kind = iota
	// KindInt is a 64-bit integer value.
	KindInt
)

// String returns the kind name, for diagnostics.
func (k Kind) String() string {
	switch k {
	case KindString:
		return "string"
	case KindInt:
		return "int"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Value is a single typed cell value. The zero Value is the empty string.
// Values are comparable, and == is Equal (String never sets num, Int
// never sets str), so a Value serves as its own map key.
type Value struct {
	kind Kind
	str  string
	num  int64
}

// String constructs a string value.
func String(s string) Value { return Value{kind: KindString, str: s} }

// Int constructs an integer value.
func Int(i int64) Value { return Value{kind: KindInt, num: i} }

// Kind reports the value's type.
func (v Value) Kind() Kind { return v.kind }

// Text returns the value rendered as text. Integers are formatted in
// base 10. This is the form the TAT graph tokenizes.
func (v Value) Text() string {
	if v.kind == KindInt {
		return strconv.FormatInt(v.num, 10)
	}
	return v.str
}

// AsInt returns the integer content. It returns an error for non-integer
// values rather than guessing a conversion.
func (v Value) AsInt() (int64, error) {
	if v.kind != KindInt {
		return 0, fmt.Errorf("relstore: value %q is %s, not int", v.Text(), v.kind)
	}
	return v.num, nil
}

// Equal reports whether two values have the same kind and content.
func (v Value) Equal(o Value) bool { return v == o }
