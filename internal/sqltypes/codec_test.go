package sqltypes

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

func TestEncodeDecodeRowRoundTrip(t *testing.T) {
	rows := []Row{
		nil,
		{},
		{NewInt(0)},
		{NewInt(-123456789), NewFloat(3.25), NewText("hello"), NullValue()},
		{NewText(""), NewText(string([]byte{0, 1, 2, 255}))},
	}
	for _, r := range rows {
		enc := EncodeRow(nil, r)
		dec, err := DecodeRow(enc, nil)
		if err != nil {
			t.Fatalf("DecodeRow(%v): %v", r, err)
		}
		if len(dec) != len(r) {
			t.Fatalf("round trip length mismatch: %d vs %d", len(dec), len(r))
		}
		for i := range r {
			if !Equal(dec[i], r[i]) || dec[i].T != r[i].T {
				t.Fatalf("column %d: got %+v want %+v", i, dec[i], r[i])
			}
		}
	}
}

func TestDecodeRowCorrupt(t *testing.T) {
	bad := [][]byte{
		{},                            // empty
		{0x05},                        // claims 5 columns, no data
		{0x01, 0x09},                  // unknown type tag
		{0x01, byte(Float)},           // truncated float
		{0x01, byte(Text), 0x05, 'a'}, // truncated text
		{0x02, byte(Int), 0x80},       // corrupt varint then missing col
	}
	for i, b := range bad {
		if _, err := DecodeRow(b, nil); err == nil {
			t.Errorf("case %d: expected error for %v", i, b)
		}
	}
}

func TestEncodeRowRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		row := make(Row, r.Intn(8))
		for j := range row {
			row[j] = randomValue(r)
		}
		dec, err := DecodeRow(EncodeRow(nil, row), nil)
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		for j := range row {
			if dec[j].T != row[j].T || !Equal(dec[j], row[j]) {
				t.Fatalf("iteration %d col %d: got %+v want %+v", i, j, dec[j], row[j])
			}
		}
	}
}

func TestEncodeKeyOrderMatchesCompare(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 4000; i++ {
		a, b := randomValue(r), randomValue(r)
		ka := EncodeKey(nil, a)
		kb := EncodeKey(nil, b)
		want := Compare(a, b)
		got := bytes.Compare(ka, kb)
		if sign(got) != sign(want) {
			t.Fatalf("key order mismatch for %v (%x) vs %v (%x): key %d, compare %d",
				a, ka, b, kb, got, want)
		}
	}
}

func TestEncodeKeyCompositeOrder(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for i := 0; i < 2000; i++ {
		a := Row{randomValue(r), randomValue(r)}
		b := Row{randomValue(r), randomValue(r)}
		ka := EncodeKey(nil, a...)
		kb := EncodeKey(nil, b...)
		want := Compare(a[0], b[0])
		if want == 0 {
			want = Compare(a[1], b[1])
		}
		if sign(bytes.Compare(ka, kb)) != sign(want) {
			t.Fatalf("composite key order mismatch: %v vs %v", a, b)
		}
	}
}

func TestEncodeKeyTextWithZeros(t *testing.T) {
	// "a\x00b" must sort between "a" and "a\x01".
	k1 := EncodeKey(nil, NewText("a"))
	k2 := EncodeKey(nil, NewText("a\x00b"))
	k3 := EncodeKey(nil, NewText("a\x01"))
	if !(bytes.Compare(k1, k2) < 0 && bytes.Compare(k2, k3) < 0) {
		t.Errorf("zero-byte escaping broken: %x %x %x", k1, k2, k3)
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	}
	return 0
}

// TestAppendDecodedRowMatchesDecodeRow asserts the arena decoder
// produces exactly what DecodeRow produces, across growth boundaries.
func TestAppendDecodedRowMatchesDecodeRow(t *testing.T) {
	rows := []Row{
		{NewInt(1), NewText("alpha"), NewFloat(2.5), NullValue()},
		{},
		{NewText(""), NewInt(-1 << 60)},
		{NewFloat(-0.0), NewText("with\x00zero")},
	}
	arena := make([]Value, 0, 2) // force at least one growth
	var got []Row
	var bounds [][2]int
	for _, r := range rows {
		rec := EncodeRow(nil, r)
		start := len(arena)
		var err error
		arena, err = AppendDecodedRow(arena, rec, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		bounds = append(bounds, [2]int{start, len(arena)})
	}
	for _, bd := range bounds {
		got = append(got, Row(arena[bd[0]:bd[1]:bd[1]]))
	}
	for i, r := range rows {
		want, err := DecodeRow(EncodeRow(nil, r), nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(got[i]) != len(want) {
			t.Fatalf("row %d: %d cols, want %d", i, len(got[i]), len(want))
		}
		for j := range want {
			if !Equal(got[i][j], want[j]) || got[i][j].T != want[j].T {
				t.Fatalf("row %d col %d: %v vs %v", i, j, got[i][j], want[j])
			}
		}
	}
	// Corrupt input must not leave partial values in the arena.
	n := len(arena)
	if _, err := AppendDecodedRow(arena, []byte{0x05, 0x09}, nil, false); err == nil {
		t.Fatal("corrupt row decoded")
	} else if arenaAfter, _ := AppendDecodedRow(arena, []byte{0x05, 0x09}, nil, false); len(arenaAfter) != n {
		t.Fatalf("corrupt decode grew arena: %d -> %d", n, len(arenaAfter))
	}
}

// TestNumericOrderAtTheEdges: over the numbers where Int and Float meet
// inexactly — ±0, 2^53±k, ±2^63, MaxInt64/MinInt64 and the largest
// finite floats, each as Int and as Float where it is one — the key
// byte order, Compare and Hash agree, and Compare is the exact order of
// the values.
func TestNumericOrderAtTheEdges(t *testing.T) {
	var vals []Value
	for k := int64(-3); k <= 3; k++ {
		vals = append(vals, NewInt(1<<53+k), NewInt(-(1<<53)+k), NewFloat(float64(1<<53+2*k)),
			NewInt(math.MaxInt64-3-k), NewInt(math.MinInt64+3+k), NewInt(k), NewFloat(float64(k)/2))
	}
	for _, f := range []float64{0x1p63, -0x1p63, math.Nextafter(0x1p63, 0), math.Nextafter(0x1p63, math.Inf(1)),
		math.Nextafter(-0x1p63, math.Inf(1)), math.Nextafter(-0x1p63, math.Inf(-1)),
		math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0x1p51 + 0.5} {
		vals = append(vals, NewFloat(f))
	}
	vals = append(vals, NewInt(math.MaxInt64), NewInt(math.MinInt64), NullValue(), NewText(""))
	for _, a := range vals {
		for _, b := range vals {
			c := Compare(a, b)
			if k := bytes.Compare(EncodeKey(nil, a), EncodeKey(nil, b)); sign(k) != c {
				t.Errorf("%s %v vs %s %v: key order %d, Compare %d", a.T, a, b.T, b, sign(k), c)
			}
			if c != -Compare(b, a) {
				t.Errorf("%v vs %v: Compare is not antisymmetric", a, b)
			}
			if c == 0 && a.Hash() != b.Hash() {
				t.Errorf("%v and %v compare equal but hash apart", a, b)
			}
		}
	}
	exact := []struct {
		a, b Value
		want int
	}{
		{NewInt(math.MaxInt64), NewFloat(0x1p63), -1},
		{NewInt(math.MinInt64), NewFloat(-0x1p63), 0},
		{NewInt(math.MinInt64 + 1), NewFloat(-0x1p63), 1},
		{NewInt(1<<53 + 1), NewFloat(0x1p53), 1},
		{NewInt(1 << 53), NewFloat(0x1p53), 0},
		{NewInt(1<<53 - 1), NewFloat(0x1p53), -1},
		{NewInt(0), NewFloat(math.Copysign(0, -1)), 0},
		{NewInt(1 << 51), NewFloat(0x1p51 + 0.5), -1},
		{NewInt(math.MaxInt64), NewFloat(math.MaxFloat64), -1},
	}
	for _, e := range exact {
		if got := Compare(e.a, e.b); got != e.want {
			t.Errorf("Compare(Int %v, Float %v) = %d, want %d", e.a, e.b, got, e.want)
		}
	}
}
