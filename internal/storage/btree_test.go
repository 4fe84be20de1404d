package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

func newTestBTree(t *testing.T, poolPages int) *BTree {
	t.Helper()
	f := newTestFile(t, NewPool(poolPages))
	bt, err := CreateBTree(f)
	if err != nil {
		t.Fatal(err)
	}
	return bt
}

// entries counts the tree's entries with a full scan.
func entries(t *testing.T, bt *BTree) int {
	t.Helper()
	n := 0
	it := bt.Seek(nil, nil)
	for it.Next() {
		n++
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestBTreePutGet(t *testing.T) {
	bt := newTestBTree(t, 64)
	for i := 0; i < 1000; i++ {
		k := []byte(fmt.Sprintf("key-%05d", i))
		v := []byte(fmt.Sprintf("val-%d", i*i))
		if err := bt.Put(k, v); err != nil {
			t.Fatal(err)
		}
	}
	if n := entries(t, bt); n != 1000 {
		t.Fatalf("entries = %d", n)
	}
	for i := 0; i < 1000; i++ {
		k := []byte(fmt.Sprintf("key-%05d", i))
		v, ok, err := bt.Get(k)
		if err != nil || !ok {
			t.Fatalf("Get(%s): ok=%v err=%v", k, ok, err)
		}
		if want := fmt.Sprintf("val-%d", i*i); string(v) != want {
			t.Fatalf("Get(%s) = %q, want %q", k, v, want)
		}
	}
	if _, ok, _ := bt.Get([]byte("nope")); ok {
		t.Error("found a key that was never inserted")
	}
	h, err := bt.Height()
	if err != nil {
		t.Fatal(err)
	}
	if h < 2 {
		t.Errorf("expected the tree to have split, height = %d", h)
	}
}

func TestBTreeOverwrite(t *testing.T) {
	bt := newTestBTree(t, 32)
	if err := bt.Put([]byte("k"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := bt.Put([]byte("k"), []byte("v2-longer")); err != nil {
		t.Fatal(err)
	}
	if n := entries(t, bt); n != 1 {
		t.Errorf("overwrite changed the entry count: %d", n)
	}
	v, ok, _ := bt.Get([]byte("k"))
	if !ok || string(v) != "v2-longer" {
		t.Errorf("Get = %q ok=%v", v, ok)
	}
}

func TestBTreeDelete(t *testing.T) {
	bt := newTestBTree(t, 32)
	for i := 0; i < 200; i++ {
		bt.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v"))
	}
	found, err := bt.Delete([]byte("k100"))
	if err != nil || !found {
		t.Fatalf("Delete: found=%v err=%v", found, err)
	}
	if _, ok, _ := bt.Get([]byte("k100")); ok {
		t.Error("deleted key still found")
	}
	if n := entries(t, bt); n != 199 {
		t.Errorf("entries = %d", n)
	}
	found, err = bt.Delete([]byte("missing"))
	if err != nil || found {
		t.Errorf("Delete(missing): found=%v err=%v", found, err)
	}
}

func TestBTreeIteratorFullScan(t *testing.T) {
	bt := newTestBTree(t, 64)
	keys := make([]string, 0, 500)
	perm := rand.New(rand.NewSource(3)).Perm(500)
	for _, i := range perm {
		k := fmt.Sprintf("key-%05d", i)
		keys = append(keys, k)
		if err := bt.Put([]byte(k), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	sort.Strings(keys)
	it := bt.Seek(nil, nil)
	i := 0
	for it.Next() {
		if string(it.Key()) != keys[i] {
			t.Fatalf("position %d: got %q want %q", i, it.Key(), keys[i])
		}
		i++
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	if i != 500 {
		t.Fatalf("iterator yielded %d entries", i)
	}
}

func TestBTreeSeekRange(t *testing.T) {
	bt := newTestBTree(t, 64)
	for i := 0; i < 100; i++ {
		bt.Put([]byte(fmt.Sprintf("k%03d", i*2)), []byte("v")) // even keys
	}
	it := bt.Seek([]byte("k101"), nil) // between k100 and k102
	if !it.Next() {
		t.Fatal("expected an entry")
	}
	if string(it.Key()) != "k102" {
		t.Fatalf("Seek landed on %q, want k102", it.Key())
	}
	// Seek past the end.
	it = bt.Seek([]byte("z"), nil)
	if it.Next() {
		t.Fatalf("Seek(z) yielded %q", it.Key())
	}
}

func TestBTreePersistence(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bt.dat")
	f, err := OpenFile(path, NewPool(64))
	if err != nil {
		t.Fatal(err)
	}
	bt, err := CreateBTree(f)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		bt.Put([]byte(fmt.Sprintf("key-%06d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	f2, err := OpenFile(path, NewPool(64))
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	bt2, err := OpenBTree(f2)
	if err != nil {
		t.Fatal(err)
	}
	if n := entries(t, bt2); n != 2000 {
		t.Fatalf("entries after reopen = %d", n)
	}
	for _, i := range []int{0, 1, 999, 1999} {
		v, ok, err := bt2.Get([]byte(fmt.Sprintf("key-%06d", i)))
		if err != nil || !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("key %d after reopen: %q ok=%v err=%v", i, v, ok, err)
		}
	}
}

func TestOpenBTreeRejectsGarbage(t *testing.T) {
	f := newTestFile(t, nil)
	h := OpenHeap(f, 1, 0)
	h.Insert([]byte("not a btree"))
	f.Flush()
	if _, err := OpenBTree(f); err == nil {
		t.Fatal("expected magic check to fail")
	}
}

func TestBTreeRejectsHugeEntry(t *testing.T) {
	bt := newTestBTree(t, 32)
	if err := bt.Put(bytes.Repeat([]byte("k"), MaxEntrySize), []byte("v")); err == nil {
		t.Fatal("expected error for oversized entry")
	}
}

// TestBTreeAgainstModel drives random Put/Delete/Get/scan operations and
// checks the tree against an in-memory map, including after large keys
// and values that force frequent splits, with a tiny buffer pool to
// exercise eviction.
func TestBTreeAgainstModel(t *testing.T) {
	bt := newTestBTree(t, 10) // tiny pool: forces eviction + write-back
	model := map[string]string{}
	r := rand.New(rand.NewSource(99))
	randKey := func() string {
		return fmt.Sprintf("%04d-%s", r.Intn(800), bytes.Repeat([]byte("k"), r.Intn(40)))
	}
	for op := 0; op < 5000; op++ {
		switch r.Intn(10) {
		case 0, 1, 2, 3, 4, 5: // put
			k := randKey()
			v := fmt.Sprintf("value-%d-%s", op, bytes.Repeat([]byte("v"), r.Intn(120)))
			if err := bt.Put([]byte(k), []byte(v)); err != nil {
				t.Fatal(err)
			}
			model[k] = v
		case 6, 7: // delete
			k := randKey()
			found, err := bt.Delete([]byte(k))
			if err != nil {
				t.Fatal(err)
			}
			_, want := model[k]
			if found != want {
				t.Fatalf("Delete(%q) found=%v want=%v", k, found, want)
			}
			delete(model, k)
		default: // get
			k := randKey()
			v, ok, err := bt.Get([]byte(k))
			if err != nil {
				t.Fatal(err)
			}
			want, wantOK := model[k]
			if ok != wantOK || (ok && string(v) != want) {
				t.Fatalf("Get(%q) = %q/%v, want %q/%v", k, v, ok, want, wantOK)
			}
		}
	}
	if n := entries(t, bt); n != len(model) {
		t.Fatalf("count drift: tree=%d model=%d", n, len(model))
	}
	// Full ordered scan must match the sorted model exactly.
	keys := make([]string, 0, len(model))
	for k := range model {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	it := bt.Seek(nil, nil)
	i := 0
	for it.Next() {
		if i >= len(keys) {
			t.Fatalf("iterator yielded extra key %q", it.Key())
		}
		if string(it.Key()) != keys[i] || string(it.Value()) != model[keys[i]] {
			t.Fatalf("scan position %d: got %q=%q, want %q=%q",
				i, it.Key(), it.Value(), keys[i], model[keys[i]])
		}
		i++
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	if i != len(keys) {
		t.Fatalf("scan yielded %d of %d keys", i, len(keys))
	}
}

func TestPoolStatsAndEviction(t *testing.T) {
	pool := NewPool(8)
	f, err := OpenFile(filepath.Join(t.TempDir(), "p.dat"), pool)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	h := OpenHeap(f, 1, 0)
	rec := bytes.Repeat([]byte("d"), 1000)
	for i := 0; i < 100; i++ {
		if _, err := h.Insert(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Scan(func(TID, []byte) (bool, error) { return true, nil }); err != nil {
		t.Fatal(err)
	}
	st := pool.Stats()
	if st.Evictions == 0 {
		t.Error("expected evictions with a small pool")
	}
	if st.Misses == 0 || st.Hits == 0 {
		t.Errorf("expected both hits and misses: %+v", st)
	}
	if pool.Resident() > pool.Capacity() {
		t.Errorf("resident %d exceeds capacity %d", pool.Resident(), pool.Capacity())
	}
}

func TestPoolAllPinnedError(t *testing.T) {
	pool := NewPool(8)
	pool.SetPinWaitBudget(10 * time.Millisecond)
	f, err := OpenFile(filepath.Join(t.TempDir(), "p.dat"), pool)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var pages []*Page
	for i := 0; i < 8; i++ {
		pg, err := f.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		p, err := f.GetPage(pg)
		if err != nil {
			t.Fatal(err)
		}
		pages = append(pages, &p)
	}
	pg, _ := f.Allocate()
	if _, err := f.GetPage(pg); err == nil {
		t.Error("expected pool-exhausted error with everything pinned")
	}
	if pw := pool.Stats().PinWaits; pw == 0 {
		t.Error("expected PinWaits > 0 after exhausting a fully pinned pool")
	}
	for _, p := range pages {
		p.Release()
	}
	if _, err := f.GetPage(pg); err != nil {
		t.Errorf("after unpinning, GetPage failed: %v", err)
	}
}
