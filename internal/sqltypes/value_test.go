package sqltypes

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"unicode/utf8"
)

func TestTypeString(t *testing.T) {
	cases := map[Type]string{
		Null:    "NULL",
		Int:     "INTEGER",
		Float:   "FLOAT",
		Text:    "VARCHAR",
		Type(9): "Type(9)",
	}
	for typ, want := range cases {
		if got := typ.String(); got != want {
			t.Errorf("Type(%d).String() = %q, want %q", typ, got, want)
		}
	}
}

func TestValueConstructorsAndAccessors(t *testing.T) {
	if v := NewInt(42); v.T != Int || v.I != 42 || v.AsInt() != 42 || v.AsFloat() != 42 {
		t.Errorf("NewInt broken: %+v", v)
	}
	if v := NewFloat(2.5); v.T != Float || v.F != 2.5 || v.AsFloat() != 2.5 || v.AsInt() != 2 {
		t.Errorf("NewFloat broken: %+v", v)
	}
	if v := NewText("abc"); v.T != Text || v.S != "abc" {
		t.Errorf("NewText broken: %+v", v)
	}
	if v := NullValue(); !v.IsNull() {
		t.Errorf("NullValue not null: %+v", v)
	}
	if v := NewText("17"); v.AsInt() != 17 || v.AsFloat() != 17 {
		t.Errorf("text numeric coercion broken: %+v", v)
	}
	var zero Value
	if !zero.IsNull() {
		t.Error("zero Value must be NULL")
	}
}

func TestValueBool(t *testing.T) {
	cases := []struct {
		v    Value
		want bool
	}{
		{NullValue(), false},
		{NewInt(0), false},
		{NewInt(1), true},
		{NewInt(-3), true},
		{NewFloat(0), false},
		{NewFloat(0.1), true},
		{NewText(""), false},
		{NewText("x"), true},
		{NewBool(true), true},
		{NewBool(false), false},
	}
	for _, c := range cases {
		if got := c.v.Bool(); got != c.want {
			t.Errorf("%v.Bool() = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{NullValue(), "NULL"},
		{NewInt(-7), "-7"},
		{NewFloat(1.5), "1.5"},
		{NewText("hi"), "hi"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
	if got := NewText("o'neil").SQLLiteral(); got != "'o''neil'" {
		t.Errorf("SQLLiteral = %q", got)
	}
	if got := NewInt(3).SQLLiteral(); got != "3" {
		t.Errorf("SQLLiteral = %q", got)
	}
}

func TestCompareBasics(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{NullValue(), NullValue(), 0},
		{NullValue(), NewInt(0), -1},
		{NewInt(0), NullValue(), 1},
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewInt(2), 1},
		{NewInt(2), NewFloat(2.0), 0},
		{NewFloat(1.5), NewInt(2), -1},
		{NewInt(5), NewText("a"), -1}, // numbers before text
		{NewText("a"), NewInt(5), 1},
		{NewText("abc"), NewText("abd"), -1},
		{NewText("b"), NewText("b"), 0},
		{NewInt(1 << 62), NewInt(1<<62 + 1), -1}, // exact int tie-break
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestEqualAndHashAgree(t *testing.T) {
	if !Equal(NewInt(2), NewFloat(2)) {
		t.Fatal("Int 2 should equal Float 2")
	}
	if NewInt(2).Hash() != NewFloat(2).Hash() {
		t.Error("hash of equal numeric values must match")
	}
	if NewText("2").Hash() == NewInt(2).Hash() {
		t.Error("text and int should not share a hash class by construction")
	}
}

// randomValue generates an arbitrary value for property tests.
func randomValue(r *rand.Rand) Value {
	switch r.Intn(4) {
	case 0:
		return NullValue()
	case 1:
		return NewInt(r.Int63() - r.Int63())
	case 2:
		return NewFloat(math.Trunc(r.NormFloat64() * 1e6)) // avoid NaN
	default:
		n := r.Intn(12)
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(r.Intn(128))
		}
		return NewText(string(b))
	}
}

func TestCompareIsTotalOrder(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		a, b, c := randomValue(r), randomValue(r), randomValue(r)
		// Antisymmetry.
		if Compare(a, b) != -Compare(b, a) {
			t.Fatalf("antisymmetry violated for %v, %v", a, b)
		}
		// Reflexivity.
		if Compare(a, a) != 0 {
			t.Fatalf("Compare(%v, %v) != 0", a, a)
		}
		// Transitivity of <=.
		if Compare(a, b) <= 0 && Compare(b, c) <= 0 && Compare(a, c) > 0 {
			t.Fatalf("transitivity violated for %v <= %v <= %v", a, b, c)
		}
	}
}

func TestHashConsistentWithEqual(t *testing.T) {
	f := func(i int64) bool {
		return NewInt(i).Hash() == NewInt(i).Hash() &&
			NewFloat(float64(i)).Hash() == NewInt(i).Hash() == (float64(i) == float64(i))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSchemaBasics(t *testing.T) {
	s := NewSchema(Column{"id", Int}, Column{"Name", Text})
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.ColIndex("ID") != 0 || s.ColIndex("name") != 1 || s.ColIndex("missing") != -1 {
		t.Errorf("ColIndex lookup broken: %d %d %d", s.ColIndex("ID"), s.ColIndex("name"), s.ColIndex("missing"))
	}
	if got := s.String(); got != "(id INTEGER, Name VARCHAR)" {
		t.Errorf("String = %q", got)
	}
	if !reflect.DeepEqual(s.Names(), []string{"id", "Name"}) {
		t.Errorf("Names = %v", s.Names())
	}
}

func TestRowCloneAndString(t *testing.T) {
	r := Row{NewInt(1), NewText("x")}
	c := r.Clone()
	c[0] = NewInt(2)
	if r[0].I != 1 {
		t.Error("Clone aliases the original")
	}
	if got := r.String(); got != "1, x" {
		t.Errorf("Row.String = %q", got)
	}
}

func TestTruncateUTF8(t *testing.T) {
	cases := []struct {
		in   string
		max  int
		want string
	}{
		{"hello", 10, "hello"},   // shorter than max: unchanged
		{"hello", 5, "hello"},    // exactly max: unchanged
		{"hello", 3, "hel"},      // ASCII: plain byte cut
		{"héllo", 2, "h"},        // cut would split the 2-byte é
		{"héllo", 3, "hé"},       // boundary lands after é
		{"日本語", 4, "日"},          // 3-byte runes
		{"日本語", 6, "日本"},         // exact rune boundary
		{"a\U0001F600b", 4, "a"}, // 4-byte rune split
		{"a\U0001F600b", 5, "a\U0001F600"},
		{"hello", 0, ""},
		{"hello", -1, ""},
		{"\xff\xfe\xfd\xfc\xfb", 3, "\xff\xfe\xfd"}, // invalid UTF-8: bounded cut
	}
	for _, c := range cases {
		got := TruncateUTF8(c.in, c.max)
		if got != c.want {
			t.Errorf("TruncateUTF8(%q, %d) = %q, want %q", c.in, c.max, got, c.want)
		}
		if len(got) > c.max && c.max >= 0 {
			t.Errorf("TruncateUTF8(%q, %d) = %q exceeds max", c.in, c.max, got)
		}
	}
	// Valid input always stays valid after truncation.
	long := "péché-🎯-" // mixed widths
	for i := 0; i <= len(long); i++ {
		if got := TruncateUTF8(long, i); !utf8.ValidString(got) {
			t.Errorf("TruncateUTF8(%q, %d) = %q is invalid UTF-8", long, i, got)
		}
	}
}
