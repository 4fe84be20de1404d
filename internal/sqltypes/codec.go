package sqltypes

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"unsafe"
)

// EncodeRow appends a compact, self-describing encoding of the row to
// dst and returns the extended slice. The encoding is:
//
//	varint(ncols) then per column: 1 type byte followed by
//	  Int   → zig-zag varint
//	  Float → 8 bytes little-endian IEEE-754
//	  Text  → varint length + bytes
//	  Null  → nothing
func EncodeRow(dst []byte, r Row) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(r)))
	for _, v := range r {
		dst = append(dst, byte(v.T))
		switch v.T {
		case Int:
			dst = binary.AppendVarint(dst, v.I)
		case Float:
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.F))
		case Text:
			dst = binary.AppendUvarint(dst, uint64(len(v.S)))
			dst = append(dst, v.S...)
		}
	}
	return dst
}

// DecodeRow decodes the columns cols (ascending schema ordinals; nil:
// every column) of a row previously produced by EncodeRow into a fresh
// Row of exactly that width.
func DecodeRow(b []byte, cols []int) (Row, error) {
	n, off, err := rowHeader(b)
	if err != nil {
		return nil, err
	}
	if cols != nil {
		n = len(cols)
	}
	r := make(Row, n)
	return r, decodeRowInto(r, b, off, cols, false)
}

// Own makes a row that AppendDecodedRow viewed independent of the
// bytes it was decoded from, by copying its text values.
func (r Row) Own() {
	for i := range r {
		if r[i].T == Text {
			r[i].S = strings.Clone(r[i].S)
		}
	}
}

// AppendDecodedRow decodes the columns cols (as for DecodeRow) of a row
// previously produced by EncodeRow, appending their values to arena and
// returning the extended arena. The decoded row is arena[len(arena):]
// of the input. Batch scans decode whole pages into one reused arena,
// so the per-row Row allocation of DecodeRow is amortized away. Text
// values copy their bytes, as DecodeRow does, unless view is set: then
// they alias b, and the row is valid only while b is unless Own is
// called on it — a scan views every row it tests and copies text out
// only for the rows that pass. A text column not listed is stepped
// over without a copy.
func AppendDecodedRow(arena []Value, b []byte, cols []int, view bool) ([]Value, error) {
	n, off, err := rowHeader(b)
	if err != nil {
		return arena, err
	}
	if cols != nil {
		n = len(cols)
	}
	start := len(arena)
	if need := start + n; need > cap(arena) {
		grown := make([]Value, len(arena), need*2)
		copy(grown, arena)
		arena = grown
	}
	arena = arena[:start+n]
	if err := decodeRowInto(arena[start:], b, off, cols, view); err != nil {
		return arena[:start], err
	}
	return arena, nil
}

// rowHeader reads an encoded row's column count and the offset of its
// first column.
func rowHeader(b []byte) (n, off int, err error) {
	cnt, off := binary.Uvarint(b)
	if off <= 0 {
		return 0, 0, fmt.Errorf("sqltypes: corrupt row header")
	}
	if cnt > uint64(len(b)) { // cheap sanity bound: ≥1 byte per column
		return 0, 0, fmt.Errorf("sqltypes: implausible column count %d", cnt)
	}
	return int(cnt), off, nil
}

// decodeRowInto decodes the columns starting at offset off into r:
// column cols[k] into r[k], or with cols nil column k into r[k]. Text
// values alias b when view is set, else they are copies. It stops
// after the last column it needs.
func decodeRowInto(r []Value, b []byte, off int, cols []int, view bool) error {
	for i, k := 0, 0; k < len(r); i++ {
		if off >= len(b) {
			return fmt.Errorf("sqltypes: truncated row at column %d", i)
		}
		want := cols == nil || cols[k] == i
		t := Type(b[off])
		off++
		var v Value
		switch t {
		case Null:
		case Int:
			x, n := binary.Varint(b[off:])
			if n <= 0 {
				return fmt.Errorf("sqltypes: corrupt int at column %d", i)
			}
			off += n
			v = NewInt(x)
		case Float:
			if off+8 > len(b) {
				return fmt.Errorf("sqltypes: corrupt float at column %d", i)
			}
			v = NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(b[off:])))
			off += 8
		case Text:
			l, n := binary.Uvarint(b[off:])
			if n <= 0 || off+n+int(l) > len(b) {
				return fmt.Errorf("sqltypes: corrupt text at column %d", i)
			}
			off += n
			switch {
			case want && view:
				v = NewText(unsafe.String(unsafe.SliceData(b[off:]), int(l)))
			case want:
				v = NewText(string(b[off : off+int(l)]))
			}
			off += int(l)
		default:
			return fmt.Errorf("sqltypes: unknown type tag %d at column %d", t, i)
		}
		if want {
			r[k] = v
			k++
		}
	}
	return nil
}

// Key-encoding type tags, chosen so that encoded byte strings sort in
// the same order as Compare: NULL < numbers < text.
const (
	keyNull  byte = 0x01
	keyNum   byte = 0x02
	keyText  byte = 0x03
	keyIntHi byte = 0x04 // disambiguates huge ints that collide as floats
	keyAbove byte = 0x05 // a float past every int64 that collides with one
)

// EncodeKey appends an order-preserving encoding of the values to dst:
// bytes.Compare(EncodeKey(a), EncodeKey(b)) matches lexicographic
// Compare over the value slices. Used for B-Tree keys.
func EncodeKey(dst []byte, vals ...Value) []byte {
	for _, v := range vals {
		switch v.T {
		case Null:
			dst = append(dst, keyNull)
		case Int, Float:
			dst = append(dst, keyNum)
			f := v.AsFloat()
			if f == 0 {
				f = 0 // -0.0 equals +0.0 under Compare: one encoding for both
			}
			bits := math.Float64bits(f)
			// Flip so that negative floats sort before positive ones.
			if bits&(1<<63) != 0 {
				bits = ^bits
			} else {
				bits |= 1 << 63
			}
			dst = binary.BigEndian.AppendUint64(dst, bits)
			// Tie-break exact integers that round to the same float. The
			// float 2^63, which MaxInt64 rounds to, lies above them all.
			tag, tie := keyIntHi, v.I
			if v.T == Float {
				tie = int64(f)
				if f >= 0x1p63 {
					tag, tie = keyAbove, math.MinInt64
				}
			}
			dst = append(dst, tag)
			dst = binary.BigEndian.AppendUint64(dst, uint64(tie)^(1<<63))
		case Text:
			dst = append(dst, keyText)
			// Escape 0x00 as 0x00 0xFF so the 0x00 0x00 terminator
			// preserves prefix ordering.
			for i := 0; i < len(v.S); i++ {
				c := v.S[i]
				if c == 0x00 {
					dst = append(dst, 0x00, 0xFF)
					continue
				}
				dst = append(dst, c)
			}
			dst = append(dst, 0x00, 0x00)
		}
	}
	return dst
}
