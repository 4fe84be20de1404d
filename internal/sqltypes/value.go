// Package sqltypes defines the SQL value model shared by every layer of
// the engine: typed values, schemas, rows, a compact row codec and an
// order-preserving key encoding used by the B-Tree storage structure.
package sqltypes

import (
	"cmp"
	"fmt"
	"hash/maphash"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"
)

// TruncateUTF8 returns the longest prefix of s that is at most max
// bytes long and does not end in the middle of a multi-byte UTF-8
// rune. A plain s[:max] slice can split a rune and produce invalid
// text; every layer that bounds statement text (the IMA virtual
// tables, the storage daemon) truncates through this helper instead.
func TruncateUTF8(s string, max int) string {
	if max < 0 {
		max = 0
	}
	if len(s) <= max {
		return s
	}
	cut := max
	// Back up over continuation bytes: at most UTFMax-1 steps, so an
	// invalid byte sequence cannot walk the cut point arbitrarily far.
	for cut > 0 && cut > max-utf8.UTFMax && !utf8.RuneStart(s[cut]) {
		cut--
	}
	return s[:cut]
}

// Type identifies the runtime type of a Value.
type Type uint8

// The supported SQL types. Null is the type of the SQL NULL literal;
// typed columns may still hold NULL values.
const (
	Null Type = iota
	Int
	Float
	Text
)

// String returns the SQL name of the type.
func (t Type) String() string {
	switch t {
	case Null:
		return "NULL"
	case Int:
		return "INTEGER"
	case Float:
		return "FLOAT"
	case Text:
		return "VARCHAR"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Value is a single SQL value. The zero Value is NULL.
type Value struct {
	T Type
	I int64
	F float64
	S string
}

// NewInt returns an INTEGER value.
func NewInt(i int64) Value { return Value{T: Int, I: i} }

// NewFloat returns a FLOAT value.
func NewFloat(f float64) Value { return Value{T: Float, F: f} }

// NewText returns a VARCHAR value.
func NewText(s string) Value { return Value{T: Text, S: s} }

// NullValue returns the SQL NULL value.
func NullValue() Value { return Value{T: Null} }

// NewBool returns the engine's boolean representation (an INTEGER 0/1),
// matching classic Ingres which has no standalone boolean column type.
func NewBool(b bool) Value {
	if b {
		return Value{T: Int, I: 1}
	}
	return Value{T: Int, I: 0}
}

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.T == Null }

// Bool interprets the value as a predicate result: NULL and zero are
// false, everything else is true.
func (v Value) Bool() bool {
	switch v.T {
	case Null:
		return false
	case Int:
		return v.I != 0
	case Float:
		return v.F != 0
	case Text:
		return v.S != ""
	}
	return false
}

// AsFloat converts a numeric value to float64. Text values that do not
// parse yield 0; NULL yields 0.
func (v Value) AsFloat() float64 {
	switch v.T {
	case Int:
		return float64(v.I)
	case Float:
		return v.F
	case Text:
		f, _ := strconv.ParseFloat(v.S, 64)
		return f
	}
	return 0
}

// AsInt converts a numeric value to int64, truncating floats.
func (v Value) AsInt() int64 {
	switch v.T {
	case Int:
		return v.I
	case Float:
		return int64(v.F)
	case Text:
		i, _ := strconv.ParseInt(v.S, 10, 64)
		return i
	}
	return 0
}

// String renders the value for display. NULL renders as "NULL", text is
// returned verbatim (unquoted).
func (v Value) String() string {
	switch v.T {
	case Null:
		return "NULL"
	case Int:
		return strconv.FormatInt(v.I, 10)
	case Float:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case Text:
		return v.S
	default:
		return "?"
	}
}

// SQLLiteral renders the value as a SQL literal (text quoted).
func (v Value) SQLLiteral() string {
	if v.T == Text {
		return "'" + escapeQuotes(v.S) + "'"
	}
	return v.String()
}

func escapeQuotes(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		if s[i] == '\'' {
			out = append(out, '\'', '\'')
			continue
		}
		out = append(out, s[i])
	}
	return string(out)
}

// Compare orders two values. NULL sorts before every non-NULL value and
// equal to NULL (three-valued logic is handled by the expression layer,
// not here — Compare defines the total order used for sorting and keys).
// Numbers compare exactly across Int/Float (compareIntFloat); comparing
// a number with text orders numbers first, giving a deterministic total
// order over heterogeneous values.
func Compare(a, b Value) int {
	switch {
	case a.T == Int && b.T == Int:
		return cmp.Compare(a.I, b.I)
	case a.T == Float && b.T == Float:
		return compareFloats(a.F, b.F)
	case a.T == Int && b.T == Float:
		return compareIntFloat(a.I, b.F)
	case a.T == Float && b.T == Int:
		return -compareIntFloat(b.I, a.F)
	case a.T == Text && b.T == Text:
		return strings.Compare(a.S, b.S)
	}
	return cmp.Compare(typeRank[a.T], typeRank[b.T])
}

// typeRank orders values of different types: NULL < numbers < text.
var typeRank = [...]int8{Null: 0, Int: 1, Float: 1, Text: 2}

// compareFloats orders two floats. It calls NaN equal to every number,
// so NaN is kept out of the data: expression arithmetic and the
// engine's row coercion reject it, and over stored values the order is
// total.
func compareFloats(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// compareIntFloat orders an Int and a Float by their exact values: an
// integral float inside the int64 range compares as an integer, a float
// outside it lies beyond every int64 (float64(MaxInt64) rounds up to
// 2^63), and a fraction compares as a float — no int64 that rounds to a
// float can fall between it and its neighbours.
func compareIntFloat(i int64, f float64) int {
	switch {
	case f >= 0x1p63:
		return -1
	case f < -0x1p63:
		return 1
	case f == math.Trunc(f):
		return cmp.Compare(i, int64(f))
	}
	return compareFloats(float64(i), f)
}

// Equal reports whether two values are identical under Compare.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// hashSeed keys the text hash; one per process, so hashes are never
// persisted.
var hashSeed = maphash.MakeSeed()

// Hash returns a 64-bit hash of the value consistent with Compare:
// values that compare equal hash equal. Numbers hash their AsFloat bits
// (Int 2 and Float 2.0 collide, as they compare equal, and -0.0 is
// folded onto +0.0); text hashes its bytes.
func (v Value) Hash() uint64 {
	switch v.T {
	case Int, Float:
		f := v.AsFloat()
		if f == 0 {
			f = 0 // -0.0
		}
		return mix64(math.Float64bits(f))
	case Text:
		return maphash.String(hashSeed, v.S)
	}
	return 0x9e3779b97f4a7c15 // NULL
}

// mix64 is the MurmurHash3 finalizer: every input bit reaches every
// output bit, the low ones included.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
