package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
)

func newTestFile(t *testing.T, pool *Pool) *File {
	t.Helper()
	if pool == nil {
		pool = NewPool(64)
	}
	f, err := OpenFile(filepath.Join(t.TempDir(), "test.dat"), pool)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

func TestTIDPacking(t *testing.T) {
	tid := NewTID(123456, 789)
	if tid.Page() != 123456 || tid.Slot() != 789 {
		t.Fatalf("TID round trip broken: %v", tid)
	}
	if tid.String() != "123456.789" {
		t.Errorf("String = %q", tid.String())
	}
}

func TestHeapInsertGetScan(t *testing.T) {
	h := OpenHeap(newTestFile(t, nil), 1, 0)
	var tids []TID
	for i := 0; i < 500; i++ {
		rec := []byte(fmt.Sprintf("record-%04d-%s", i, bytes.Repeat([]byte("x"), i%50)))
		tid, err := h.Insert(rec)
		if err != nil {
			t.Fatal(err)
		}
		tids = append(tids, tid)
	}
	// The row counter is engine-maintained: raw Insert does not touch it.
	if h.Rows() != 0 {
		t.Fatalf("Rows = %d before AdjustRows", h.Rows())
	}
	h.AdjustRows(500)
	if h.Rows() != 500 {
		t.Fatalf("Rows = %d", h.Rows())
	}
	for i, tid := range tids {
		rec, ok, err := h.Get(tid)
		if err != nil || !ok {
			t.Fatalf("Get(%v): ok=%v err=%v", tid, ok, err)
		}
		if !bytes.HasPrefix(rec, []byte(fmt.Sprintf("record-%04d", i))) {
			t.Fatalf("Get(%v) returned wrong record %q", tid, rec)
		}
	}
	seen := 0
	if err := h.Scan(func(tid TID, rec []byte) (bool, error) {
		seen++
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	if seen != 500 {
		t.Fatalf("Scan visited %d records", seen)
	}
}

func TestHeapDelete(t *testing.T) {
	h := OpenHeap(newTestFile(t, nil), 1, 0)
	t1, _ := h.Insert([]byte("alpha"))
	t2, _ := h.Insert([]byte("beta"))
	h.AdjustRows(2)
	if err := h.Delete(t1); err != nil {
		t.Fatal(err)
	}
	h.AdjustRows(-1)
	if _, ok, _ := h.Get(t1); ok {
		t.Error("deleted record still visible")
	}
	if h.Rows() != 1 {
		t.Errorf("Rows = %d after delete", h.Rows())
	}
	// Idempotent delete; the engine-maintained counter is untouched.
	if err := h.Delete(t1); err != nil {
		t.Fatal(err)
	}
	if h.Rows() != 1 {
		t.Errorf("double delete changed row count: %d", h.Rows())
	}
	if rec, ok, _ := h.Get(t2); !ok || string(rec) != "beta" {
		t.Errorf("the other record: %q ok=%v", rec, ok)
	}
}

func TestHeapOverflowAccounting(t *testing.T) {
	h := OpenHeap(newTestFile(t, nil), 2, 0)
	rec := bytes.Repeat([]byte("r"), 400)
	for i := 0; i < 200; i++ {
		if _, err := h.Insert(rec); err != nil {
			t.Fatal(err)
		}
	}
	if h.Pages() <= 2 {
		t.Fatalf("expected growth beyond main pages, got %d pages", h.Pages())
	}
	if h.OverflowPages() != h.Pages()-2 {
		t.Errorf("OverflowPages = %d, want %d", h.OverflowPages(), h.Pages()-2)
	}
	h.SetMainPages(h.Pages())
	if h.OverflowPages() != 0 {
		t.Errorf("after SetMainPages, overflow = %d", h.OverflowPages())
	}
}

// SizeBytes grows record by record (record plus slot entry) within a
// page and is the page count times the page size, less the free space
// of the page being appended to, across pages.
func TestHeapSizeBytesCountsTheTailAsFilled(t *testing.T) {
	h := OpenHeap(newTestFile(t, nil), 1, 0)
	if h.SizeBytes() != 0 {
		t.Fatalf("empty heap occupies %d bytes", h.SizeBytes())
	}
	rec := make([]byte, 100)
	for i := 0; i < 100; i++ {
		pages, before := h.Pages(), h.SizeBytes()
		if _, err := h.Insert(rec); err != nil {
			t.Fatal(err)
		}
		size := h.SizeBytes()
		if size <= before || size > h.File().SizeBytes() {
			t.Fatalf("insert %d: %d bytes after %d, file %d", i, size, before, h.File().SizeBytes())
		}
		if h.Pages() == pages && size-before != int64(len(rec)+slotSize) {
			t.Fatalf("insert %d within a page grew the heap by %d bytes, want %d", i, size-before, len(rec)+slotSize)
		}
	}
	if h.Pages() < 3 {
		t.Fatalf("100 records of 100 bytes on %d pages", h.Pages())
	}
}

func TestHeapRejectsHugeRecord(t *testing.T) {
	h := OpenHeap(newTestFile(t, nil), 1, 0)
	if _, err := h.Insert(bytes.Repeat([]byte("x"), PageSize)); err == nil {
		t.Fatal("expected error for oversized record")
	}
}

func TestHeapPersistence(t *testing.T) {
	dir := t.TempDir()
	pool := NewPool(16)
	path := filepath.Join(dir, "h.dat")

	f, err := OpenFile(path, pool)
	if err != nil {
		t.Fatal(err)
	}
	h := OpenHeap(f, 1, 0)
	var tids []TID
	for i := 0; i < 300; i++ {
		tid, err := h.Insert([]byte(fmt.Sprintf("row-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		tids = append(tids, tid)
	}
	rows := h.Rows()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	f2, err := OpenFile(path, NewPool(16))
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	h2 := OpenHeap(f2, 1, rows)
	for i, tid := range tids {
		rec, ok, err := h2.Get(tid)
		if err != nil || !ok || string(rec) != fmt.Sprintf("row-%d", i) {
			t.Fatalf("after reopen, Get(%v) = %q ok=%v err=%v", tid, rec, ok, err)
		}
	}
}

func TestHeapTruncate(t *testing.T) {
	pool := NewPool(16)
	f, err := OpenFile(filepath.Join(t.TempDir(), "h.dat"), pool)
	if err != nil {
		t.Fatal(err)
	}
	h := OpenHeap(f, 1, 0)
	for i := 0; i < 100; i++ {
		if _, err := h.Insert(bytes.Repeat([]byte("a"), 200)); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Truncate(); err != nil {
		t.Fatal(err)
	}
	defer h.File().Close()
	if h.Rows() != 0 || h.Pages() != 0 {
		t.Fatalf("after truncate: rows=%d pages=%d", h.Rows(), h.Pages())
	}
	if _, err := h.Insert([]byte("fresh")); err != nil {
		t.Fatal(err)
	}
	count := 0
	h.Scan(func(TID, []byte) (bool, error) { count++; return true, nil })
	if count != 1 {
		t.Fatalf("scan after truncate found %d rows", count)
	}
}

func TestHeapRandomizedAgainstModel(t *testing.T) {
	h := OpenHeap(newTestFile(t, nil), 1, 0)
	model := map[TID][]byte{}
	r := rand.New(rand.NewSource(42))
	var live []TID
	for op := 0; op < 3000; op++ {
		switch {
		case len(live) == 0 || r.Intn(3) > 0:
			rec := make([]byte, 1+r.Intn(200))
			r.Read(rec)
			tid, err := h.Insert(rec)
			if err != nil {
				t.Fatal(err)
			}
			model[tid] = append([]byte(nil), rec...)
			live = append(live, tid)
		default:
			i := r.Intn(len(live))
			tid := live[i]
			if r.Intn(2) == 0 {
				if err := h.Delete(tid); err != nil {
					t.Fatal(err)
				}
				delete(model, tid)
				live = append(live[:i], live[i+1:]...)
			} else {
				// A new version: the old slot dies, the record lands
				// wherever it fits (possibly the freed slot).
				if err := h.Delete(tid); err != nil {
					t.Fatal(err)
				}
				rec := make([]byte, 1+r.Intn(300))
				r.Read(rec)
				nt, err := h.Insert(rec)
				if err != nil {
					t.Fatal(err)
				}
				delete(model, tid)
				model[nt] = append([]byte(nil), rec...)
				live[i] = nt
			}
		}
	}
	got := map[TID][]byte{}
	h.Scan(func(tid TID, rec []byte) (bool, error) {
		got[tid] = append([]byte(nil), rec...)
		return true, nil
	})
	if len(got) != len(model) {
		t.Fatalf("scan count %d != model %d", len(got), len(model))
	}
	for tid, want := range model {
		if !bytes.Equal(got[tid], want) {
			t.Fatalf("TID %v: scan %x, model %x", tid, got[tid], want)
		}
	}
}

// TestScanBatchMatchesScan asserts the batch scan sees exactly the
// records (and TIDs, in the same physical order) that the row scan
// sees, across multiple pages and with deleted slots interleaved.
func TestScanBatchMatchesScan(t *testing.T) {
	h := OpenHeap(newTestFile(t, nil), 1, 0)
	var tids []TID
	for i := 0; i < 700; i++ {
		rec := []byte(fmt.Sprintf("rec-%04d-%s", i, bytes.Repeat([]byte("y"), i%40)))
		tid, err := h.Insert(rec)
		if err != nil {
			t.Fatal(err)
		}
		tids = append(tids, tid)
	}
	// Kill every 7th record so dead slots appear on every page.
	for i := 0; i < len(tids); i += 7 {
		if err := h.Delete(tids[i]); err != nil {
			t.Fatal(err)
		}
	}

	var wantTIDs []TID
	var wantRecs [][]byte
	if err := h.Scan(func(tid TID, rec []byte) (bool, error) {
		wantTIDs = append(wantTIDs, tid)
		wantRecs = append(wantRecs, append([]byte(nil), rec...))
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}

	for _, maxRows := range []int{0, 1, 64, 100000} {
		it := h.ScanBatch(nil)
		var b RecBatch
		var gotTIDs []TID
		var gotRecs [][]byte
		batches := 0
		for {
			ok, err := it.NextBatchMax(&b, maxRows)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			batches++
			if len(b.Recs) == 0 {
				t.Fatal("ok batch with zero records")
			}
			for i := range b.Recs {
				gotTIDs = append(gotTIDs, b.TIDs[i])
				gotRecs = append(gotRecs, append([]byte(nil), b.Recs[i]...))
			}
		}
		if len(gotTIDs) != len(wantTIDs) {
			t.Fatalf("maxRows=%d: %d records, want %d", maxRows, len(gotTIDs), len(wantTIDs))
		}
		for i := range wantTIDs {
			if gotTIDs[i] != wantTIDs[i] || !bytes.Equal(gotRecs[i], wantRecs[i]) {
				t.Fatalf("maxRows=%d: record %d mismatch: tid %v vs %v", maxRows, i, gotTIDs[i], wantTIDs[i])
			}
		}
		if maxRows == 100000 && batches != 1 {
			t.Fatalf("maxRows=100000: %d batches, want 1", batches)
		}
	}
}

func TestScanBatchEmptyHeap(t *testing.T) {
	h := OpenHeap(newTestFile(t, nil), 1, 0)
	var b RecBatch
	if ok, err := h.ScanBatch(nil).NextBatchMax(&b, 0); err != nil || ok {
		t.Fatalf("empty heap: ok=%v err=%v", ok, err)
	}
}

// TestScanBatchAllocs asserts the batch-scan inner loop is allocation
// free in the steady state: once the reused RecBatch has grown to its
// working size, a full scan performs 0 allocations per row (amortized
// well under 1 per batch). This is the invariant the CI bench-smoke
// step pins.
func TestScanBatchAllocs(t *testing.T) {
	h := OpenHeap(newTestFile(t, NewPool(256)), 1, 0)
	rec := make([]byte, 64)
	for i := 0; i < 4096; i++ {
		if _, err := h.Insert(rec); err != nil {
			t.Fatal(err)
		}
	}
	var b RecBatch
	scan := func() {
		it := h.ScanBatch(nil)
		for {
			ok, err := it.NextBatchMax(&b, 1024)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				return
			}
		}
	}
	scan() // warm up: grow the batch buffers to working size
	// One allocation per scan remains (the HeapBatchIter itself).
	if allocs := testing.AllocsPerRun(10, scan); allocs > 2 {
		t.Fatalf("batch scan allocates %.1f times per full scan, want <= 2", allocs)
	}
}
