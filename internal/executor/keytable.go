package executor

import (
	"repro/internal/sqltypes"
)

// keyTable numbers the distinct key tuples it is given, 0, 1, 2, … in
// the order they first arrive. It is the executor's one equality
// structure: the hash join keys its build rows with it, GROUP BY its
// groups, DISTINCT its rows and a DISTINCT aggregate the (group, value)
// pairs it has counted. Equality is sqltypes.Compare — Int 2 matches
// Float 2.0 and -0.0 matches 0.0 — and the hash is sqltypes.Value.Hash,
// which agrees with it. NULL is an ordinary key value here; the join,
// whose NULL keys never match, drops them before asking.
//
// Lookups allocate nothing: open addressing over a power-of-two slot
// array whose slots hold the entry number next to the top half of its
// hash, so most mismatches are rejected without touching a key.
type keyTable struct {
	width  int
	keys   []sqltypes.Value // entry e's key is keys[e*width : (e+1)*width]
	hashes []uint64         // entry e's hash
	slots  []uint64         // hash>>32<<32 | entry+1; 0 is empty
	mask   int
}

// sizeHint turns an optimizer row estimate into how many entries to
// make room for up front. It is capped, so an estimate far too high
// costs at most that much zeroed memory; past it, tables double as
// they fill.
func sizeHint(est float64) int { return int(min(max(est, 8), 1<<14)) }

// newKeyTable returns an empty table for keys of width values, with
// room for about est entries.
func newKeyTable(width int, est float64) *keyTable {
	n := sizeHint(est)
	t := &keyTable{
		width:  width,
		keys:   make([]sqltypes.Value, 0, n*width),
		hashes: make([]uint64, 0, n),
	}
	slots := 16
	for slots*3 < n*4 {
		slots *= 2
	}
	t.rehash(slots)
	return t
}

// hashKey combines the hashes of a key's values.
func hashKey(key []sqltypes.Value) uint64 {
	var h uint64
	for _, v := range key {
		h = h*0x9e3779b97f4a7c15 + v.Hash()
	}
	return h
}

// len is the number of entries.
func (t *keyTable) len() int { return len(t.hashes) }

// key returns entry e's key. The values are the table's own copy.
func (t *keyTable) key(e int32) sqltypes.Row {
	lo := int(e) * t.width
	return t.keys[lo : lo+t.width : lo+t.width]
}

// find returns the entry whose key equals key, or -1.
func (t *keyTable) find(key []sqltypes.Value) int32 {
	e, _ := t.lookup(key, hashKey(key))
	return e
}

// insert returns the entry whose key equals key, adding one — a copy of
// key — when there is none (fresh).
func (t *keyTable) insert(key []sqltypes.Value) (e int32, fresh bool) {
	h := hashKey(key)
	e, slot := t.lookup(key, h)
	if e >= 0 {
		return e, false
	}
	if 4*(t.len()+1) > 3*len(t.slots) {
		t.rehash(2 * len(t.slots))
		_, slot = t.lookup(key, h)
	}
	e = int32(t.len())
	t.keys = append(t.keys, key...)
	t.hashes = append(t.hashes, h)
	t.slots[slot] = h>>32<<32 | uint64(e+1)
	return e, true
}

// lookup probes for key: its entry, or -1 and the empty slot it would
// take.
func (t *keyTable) lookup(key []sqltypes.Value, h uint64) (int32, int) {
	tag := h >> 32 << 32
	for i := int(h) & t.mask; ; i = (i + 1) & t.mask {
		s := t.slots[i]
		if s == 0 {
			return -1, i
		}
		if s&^0xffffffff == tag {
			if e := int32(s) - 1; t.equal(e, key) {
				return e, i
			}
		}
	}
}

func (t *keyTable) equal(e int32, key []sqltypes.Value) bool {
	for i, v := range t.key(e) {
		if sqltypes.Compare(v, key[i]) != 0 {
			return false
		}
	}
	return true
}

// rehash rebuilds the slot array with n slots (a power of two).
func (t *keyTable) rehash(n int) {
	t.slots, t.mask = make([]uint64, n), n-1
	for e, h := range t.hashes {
		i := int(h) & t.mask
		for t.slots[i] != 0 {
			i = (i + 1) & t.mask
		}
		t.slots[i] = h>>32<<32 | uint64(e+1)
	}
}
