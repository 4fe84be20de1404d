package storage

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

// boundTree builds a tree of n keys over every step-th number, the keys
// long enough that internal nodes fan out little and the tree has three
// levels.
func boundTree(t *testing.T, n, step int) *BTree {
	t.Helper()
	bt := newTestBTree(t, 256)
	val := []byte("v")
	for _, i := range rand.New(rand.NewSource(11)).Perm(n) {
		if err := bt.Put(boundKey(i*step), val); err != nil {
			t.Fatal(err)
		}
	}
	if h, err := bt.Height(); err != nil || h < 3 {
		t.Fatalf("want a tree of height >= 3, got %d (%v)", h, err)
	}
	return bt
}

var keyPad = strings.Repeat("p", 250)

func boundKey(i int) []byte { return []byte(fmt.Sprintf("k%06d", i) + keyPad) }

func collect(t *testing.T, it *Iterator) []string {
	t.Helper()
	var out []string
	for it.Next() {
		out = append(out, string(it.Key()))
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// A bounded iterator yields exactly the entries of the unbounded one
// that lie below the bound — whatever leaf boundaries the range crosses
// and whether the bound is an existing key, falls between keys, lies
// before the start or past the last key.
func TestBoundedSeekEqualsFilteredUnbounded(t *testing.T) {
	const n, step = 3000, 3 // keys k000000, k000003, ... : two of three numbers are absent
	bt := boundTree(t, n, step)
	check := func(lo, hi []byte) bool {
		var want []string
		for _, k := range collect(t, bt.Seek(lo, nil)) {
			if hi == nil || k < string(hi) {
				want = append(want, k)
			}
		}
		got := collect(t, bt.Seek(lo, hi))
		if len(got) != len(want) {
			t.Logf("[%.7s, %.7s): %d entries, want %d", lo, hi, len(got), len(want))
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				t.Logf("[%.7s, %.7s): entry %d is %.7s, want %.7s", lo, hi, i, got[i], want[i])
				return false
			}
		}
		return true
	}
	prop := func(a, b uint16, span uint8) bool {
		lo := int(a) % (n*step + 50) // up to past the last key
		hi := lo + int(b)%(int(span)*8+2)
		return check(boundKey(lo), boundKey(hi))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Error(err)
	}
	for _, c := range [][2][]byte{
		{nil, nil},
		{nil, boundKey(0)},                  // bound at the first key: empty
		{nil, boundKey(1)},                  // just past the first key
		{boundKey(30), boundKey(30)},        // empty range at an existing key
		{boundKey(31), boundKey(30)},        // bound before the start
		{boundKey(0), boundKey(n * step)},   // bound just past the last key
		{boundKey(0), []byte("z")},          // bound past everything
		{boundKey(n*step + 1), []byte("z")}, // start past everything
		{boundKey(2999), boundKey(6001)},    // a thousand entries, many leaves
	} {
		if !check(c[0], c[1]) {
			t.Errorf("range [%.7s, %.7s) differs", c[0], c[1])
		}
	}
}

// An equality probe on a unique index — the range [key, key||0xFF) — is
// one root-to-leaf walk: as many page gets as the tree is high, for
// every key, the last of its leaf included (the separators on the
// descent path tell the iterator that nothing below the bound can live
// further right), and for absent keys too.
func TestEqualityProbeIsOneDescent(t *testing.T) {
	const n, step = 3000, 3
	bt := boundTree(t, n, step)
	height, err := bt.Height()
	if err != nil {
		t.Fatal(err)
	}
	pool := bt.File().pool
	gets := func() int64 { st := pool.Stats(); return st.Hits + st.Misses }
	for i := 0; i < n*step; i++ {
		key := boundKey(i)
		before := gets()
		got := collect(t, bt.Seek(key, append(key[:len(key):len(key)], 0xFF)))
		if d := gets() - before; d != int64(height) {
			t.Fatalf("probe of %.7s: %d page gets, tree height %d", key, d, height)
		}
		if want := i%step == 0; (len(got) == 1 && got[0] == string(key)) != want || len(got) > 1 {
			t.Fatalf("probe of %.7s yielded %d entries", key, len(got))
		}
	}
}

// Bounded scans stay exact while a writer splits the very leaves they
// buffer: every key that was in the range before the scan started comes
// out, in order, and nothing at or past the bound does. Run with -race.
func TestBoundedSeekUnderSplittingInserts(t *testing.T) {
	const n, step = 3000, 3
	bt := boundTree(t, n, step)
	val := []byte("w")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		r := rand.New(rand.NewSource(9))
		for {
			select {
			case <-stop:
				return
			default:
			}
			// The absent numbers in the scanned region: inserts land
			// between buffered keys and split their leaves.
			i := 3000 + r.Intn(3000)
			if i%step == 0 {
				i++
			}
			if err := bt.Put(boundKey(i), val); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for round := 0; round < 200; round++ {
		lo := 3000 + (round*37)%2000
		hi := lo + 1 + (round*53)%900
		var last string
		seen := map[string]bool{}
		it := bt.Seek(boundKey(lo), boundKey(hi))
		for it.Next() {
			k := string(it.Key())
			if k <= last || k < string(boundKey(lo)) || k >= string(boundKey(hi)) {
				t.Fatalf("[%d, %d): key %.7s after %.7s", lo, hi, k, last)
			}
			last = k
			seen[k] = true
		}
		if err := it.Err(); err != nil {
			t.Fatal(err)
		}
		for i := (lo + step - 1) / step * step; i < hi; i += step {
			if !seen[string(boundKey(i))] {
				t.Fatalf("[%d, %d): key %.7s was there all along and is missing", lo, hi, boundKey(i))
			}
		}
	}
	close(stop)
	wg.Wait()
}
