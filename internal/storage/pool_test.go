package storage

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// fillPage writes a deterministic pattern for page pg into the file and
// flushes it, so later reads can verify frame integrity.
func fillPage(t *testing.T, f *File, pg uint32, tag byte) {
	t.Helper()
	p, err := f.GetPage(pg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p.Data {
		p.Data[i] = tag
	}
	p.MarkDirty()
	p.Release()
}

func pageTag(pg uint32, fileIdx int) byte {
	return byte(pg*7 + uint32(fileIdx)*13 + 1)
}

// TestPoolColdPageConcurrentGet hammers a single cold page from many
// goroutines. With the load latch, every getter must observe the fully
// read page — never a zero or partially filled frame (the old pool
// published the frame before the read completed).
func TestPoolColdPageConcurrentGet(t *testing.T) {
	pool := NewPool(32)
	f := newTestFile(t, pool)
	pg, _ := f.Allocate()
	fillPage(t, f, pg, 0xAB)
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte{0xAB}, PageSize)

	for round := 0; round < 20; round++ {
		pool.dropFile(f) // make the page cold again
		var wg sync.WaitGroup
		errs := make(chan error, 16)
		for g := 0; g < 16; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				p, err := f.GetPage(pg)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(p.Data, want) {
					t.Errorf("round %d: got partially loaded frame (first byte %#x)", round, p.Data[0])
				}
				p.Release()
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
}

// TestPoolColdPageReadErrorObserved closes the underlying descriptor and
// then races many getters at a cold page: every one of them must see the
// read error through the load latch. None may succeed with garbage data.
func TestPoolColdPageReadErrorObserved(t *testing.T) {
	pool := NewPool(32)
	f, err := OpenFile(filepath.Join(t.TempDir(), "err.dat"), pool)
	if err != nil {
		t.Fatal(err)
	}
	pg, _ := f.Allocate()
	fillPage(t, f, pg, 0x55)
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	pool.dropFile(f)
	f.f.Close() // force every subsequent physical read to fail

	var wg sync.WaitGroup
	got := make([]error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := f.GetPage(pg)
			if err == nil {
				p.Release()
			}
			got[i] = err
		}(g)
	}
	wg.Wait()
	for i, err := range got {
		if err == nil {
			t.Fatalf("getter %d succeeded on a page whose read must fail", i)
		}
	}
	if res := pool.Resident(); res != 0 {
		t.Errorf("failed loads left %d resident frames", res)
	}
}

// TestPoolMixedStress runs concurrent get/release (clean and dirty),
// flushes and drops over two files sharing one overcommitted pool. Run
// under -race this exercises the shard locks, the load latch, the
// write-back latch and eviction against each other. Every read checks
// the page's deterministic pattern, so a lost update or stale re-read
// after eviction shows up as corruption.
func TestPoolMixedStress(t *testing.T) {
	const (
		nFiles       = 2
		pagesPerFile = 96
	)
	pool := NewPool(128) // 4 shards, overcommitted 1.5x
	files := make([]*File, nFiles)
	for i := range files {
		files[i] = newTestFile(t, pool)
		for pg := uint32(0); pg < pagesPerFile; pg++ {
			if _, err := files[i].Allocate(); err != nil {
				t.Fatal(err)
			}
			fillPage(t, files[i], pg, pageTag(pg, i))
		}
		if err := files[i].Flush(); err != nil {
			t.Fatal(err)
		}
	}

	iters := 4000
	if testing.Short() {
		iters = 800
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				fi := r.Intn(nFiles)
				f := files[fi]
				switch r.Intn(20) {
				case 0:
					if err := f.Flush(); err != nil {
						t.Errorf("flush: %v", err)
						return
					}
				case 1:
					// Drop without closing: discards cached frames, the
					// file stays readable so later gets re-load from disk.
					pool.dropFile(f)
				default:
					pg := uint32(r.Intn(pagesPerFile))
					p, err := f.GetPage(pg)
					if err != nil {
						t.Errorf("get %d/%d: %v", fi, pg, err)
						return
					}
					if tag := pageTag(pg, fi); p.Data[0] != tag || p.Data[PageSize-1] != tag {
						t.Errorf("page %d/%d corrupt: %#x..%#x want %#x", fi, pg, p.Data[0], p.Data[PageSize-1], tag)
						p.Release()
						return
					}
					if r.Intn(4) == 0 {
						p.MarkDirty() // content unchanged; exercises write-back
					}
					p.Release()
				}
			}
		}(int64(g) * 7919)
	}
	wg.Wait()
	if res, c := pool.Resident(), pool.Capacity(); res > c {
		t.Errorf("resident %d exceeds capacity %d", res, c)
	}
}

// TestPoolFlushDuringConcurrentScan flushes a file repeatedly while
// readers scan all of its pages and a writer keeps re-dirtying them.
// Afterwards the on-disk image must match the deterministic pattern.
// Page contents are latched the way the heap and B-Tree latch theirs:
// readers hold the read side while they look at a pinned page, the
// writer the write side while it changes one. The pool itself takes no
// latch, so the flushes race only against pins.
func TestPoolFlushDuringConcurrentScan(t *testing.T) {
	const pages = 64
	pool := NewPool(32) // half the working set: scans force eviction
	path := filepath.Join(t.TempDir(), "scan.dat")
	f, err := OpenFile(path, pool)
	if err != nil {
		t.Fatal(err)
	}
	for pg := uint32(0); pg < pages; pg++ {
		if _, err := f.Allocate(); err != nil {
			t.Fatal(err)
		}
		fillPage(t, f, pg, pageTag(pg, 0))
	}

	var latch sync.RWMutex
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() { // scanner
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for pg := uint32(0); pg < pages; pg++ {
					latch.RLock()
					p, err := f.GetPage(pg)
					if err != nil {
						latch.RUnlock()
						t.Errorf("scan get %d: %v", pg, err)
						return
					}
					got := p.Data[0]
					p.Release()
					latch.RUnlock()
					if tag := pageTag(pg, 0); got != tag {
						t.Errorf("scan page %d corrupt: %#x want %#x", pg, got, tag)
						return
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() { // writer re-dirtying pages with the same pattern
		defer wg.Done()
		r := rand.New(rand.NewSource(42))
		for {
			select {
			case <-stop:
				return
			default:
			}
			pg := uint32(r.Intn(pages))
			latch.Lock()
			p, err := f.GetPage(pg)
			if err != nil {
				latch.Unlock()
				t.Errorf("writer get %d: %v", pg, err)
				return
			}
			tag := pageTag(pg, 0)
			for i := range p.Data {
				p.Data[i] = tag
			}
			p.MarkDirty()
			p.Release()
			latch.Unlock()
		}
	}()

	flushes := 50
	if testing.Short() {
		flushes = 10
	}
	for i := 0; i < flushes; i++ {
		if err := f.Flush(); err != nil {
			t.Fatalf("flush %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()

	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	// Re-open with a fresh pool: what is on disk must be the pattern.
	f2, err := OpenFile(path, NewPool(pages))
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	for pg := uint32(0); pg < pages; pg++ {
		p, err := f2.GetPage(pg)
		if err != nil {
			t.Fatal(err)
		}
		if tag := pageTag(pg, 0); p.Data[0] != tag || p.Data[PageSize-1] != tag {
			t.Errorf("disk page %d corrupt after flush storm: %#x want %#x", pg, p.Data[0], tag)
		}
		p.Release()
	}
}

// TestPoolEvictionWriteBackFailurePreservesData forces a dirty
// eviction whose write-back fails and checks that the victim's data is
// not lost: the frame must be re-published (still dirty) so later
// reads hit it in memory and a later flush can persist it. The old
// pool discarded the only up-to-date copy and silently served stale
// on-disk bytes afterwards.
func TestPoolEvictionWriteBackFailurePreservesData(t *testing.T) {
	pool := NewPool(8) // single shard
	path := filepath.Join(t.TempDir(), "wb.dat")
	f, err := OpenFile(path, pool)
	if err != nil {
		t.Fatal(err)
	}
	const pages = 8
	for pg := uint32(0); pg < pages; pg++ {
		if _, err := f.Allocate(); err != nil {
			t.Fatal(err)
		}
		fillPage(t, f, pg, pageTag(pg, 0)) // dirty, never flushed
	}

	f.f.Close() // every physical write (and read) now fails
	extra, _ := f.Allocate()
	if _, err := f.GetPage(extra); err == nil {
		t.Fatal("get succeeded although the eviction write-back had to fail")
	}

	// Nothing may be lost: all original pages are still resident and
	// served from memory (the descriptor is closed, so any disk read
	// would fail).
	if res := pool.Resident(); res != pages {
		t.Fatalf("resident %d after failed write-back, want %d", res, pages)
	}
	for pg := uint32(0); pg < pages; pg++ {
		p, err := f.GetPage(pg)
		if err != nil {
			t.Fatalf("page %d no longer readable after failed write-back: %v", pg, err)
		}
		if tag := pageTag(pg, 0); p.Data[0] != tag || p.Data[PageSize-1] != tag {
			t.Errorf("page %d corrupt after failed write-back: %#x want %#x", pg, p.Data[0], tag)
		}
		p.Release()
	}

	// Restore the descriptor: the pages are still dirty, so a flush
	// must now persist every one of them.
	ff, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.f = ff
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	f2, err := OpenFile(path, NewPool(pages))
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	for pg := uint32(0); pg < pages; pg++ {
		p, err := f2.GetPage(pg)
		if err != nil {
			t.Fatal(err)
		}
		if tag := pageTag(pg, 0); p.Data[0] != tag || p.Data[PageSize-1] != tag {
			t.Errorf("disk page %d wrong after retried flush: %#x want %#x", pg, p.Data[0], tag)
		}
		p.Release()
	}
}

// TestPoolFlushConcurrentMutationNoTear flushes while mutators rewrite
// whole pages with changing byte values (each goroutine owns a
// disjoint page range, as engine-level locks guarantee). Flush must
// snapshot a page only while it is unpinned, so every on-disk page
// image is uniform; a flush that reads the frame while a mutator
// writes it shows up as a mixed ("torn") page — and as a data race
// under -race. Eviction pressure (pool holds half the pages) exercises
// the eviction write-back path the same way.
func TestPoolFlushConcurrentMutationNoTear(t *testing.T) {
	const (
		pages    = 64
		nWriters = 4
	)
	pool := NewPool(32)
	path := filepath.Join(t.TempDir(), "tear.dat")
	f, err := OpenFile(path, pool)
	if err != nil {
		t.Fatal(err)
	}
	for pg := uint32(0); pg < pages; pg++ {
		if _, err := f.Allocate(); err != nil {
			t.Fatal(err)
		}
		fillPage(t, f, pg, 1)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < nWriters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)*104729 + 1))
			lo, hi := g*pages/nWriters, (g+1)*pages/nWriters
			for {
				select {
				case <-stop:
					return
				default:
				}
				pg := uint32(lo + r.Intn(hi-lo))
				p, err := f.GetPage(pg)
				if err != nil {
					t.Errorf("writer get %d: %v", pg, err)
					return
				}
				tag := byte(r.Intn(255)) + 1
				for i := range p.Data {
					p.Data[i] = tag
				}
				p.MarkDirty()
				p.Release()
			}
		}(g)
	}

	flushes := 100
	if testing.Short() {
		flushes = 20
	}
	for i := 0; i < flushes; i++ {
		if err := f.Flush(); err != nil {
			t.Fatalf("flush %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	f2, err := OpenFile(path, NewPool(pages))
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	for pg := uint32(0); pg < pages; pg++ {
		p, err := f2.GetPage(pg)
		if err != nil {
			t.Fatal(err)
		}
		tag := p.Data[0]
		for i, b := range p.Data {
			if b != tag {
				t.Errorf("disk page %d torn: byte %d is %#x, byte 0 is %#x", pg, i, b, tag)
				break
			}
		}
		p.Release()
	}
}

// TestPoolPinWaitBackpressure pins every frame of a one-shard pool and
// checks that a further get blocks (counting a PinWait) until a pin is
// released, instead of failing immediately.
func TestPoolPinWaitBackpressure(t *testing.T) {
	pool := NewPool(8) // single shard
	if pool.Shards() != 1 {
		t.Fatalf("want 1 shard for capacity 8, got %d", pool.Shards())
	}
	f := newTestFile(t, pool)
	var pinned []*Page
	for i := 0; i < 8; i++ {
		pg, _ := f.Allocate()
		p, err := f.GetPage(pg)
		if err != nil {
			t.Fatal(err)
		}
		pinned = append(pinned, &p)
	}
	pg, _ := f.Allocate()
	done := make(chan error, 1)
	go func() {
		p, err := f.GetPage(pg)
		if err == nil {
			p.Release()
		}
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("get returned (%v) while all frames were pinned; want it to wait", err)
	case <-time.After(50 * time.Millisecond):
	}
	pinned[0].Release()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("get failed after a frame was unpinned: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("get still blocked after a frame was unpinned")
	}
	if pw := pool.Stats().PinWaits; pw == 0 {
		t.Error("expected PinWaits > 0 while the shard was fully pinned")
	}
	for _, p := range pinned[1:] {
		p.Release()
	}
}

// TestPoolZipfianHitRatio replays one Zipfian page trace through the
// sharded clock-sweep pool and through an exact-LRU simulator of the
// same capacity. Clock (second chance) approximates LRU; its hit ratio
// must stay within a few percentage points.
func TestPoolZipfianHitRatio(t *testing.T) {
	const (
		capacity = 64
		nPages   = 512
		trace    = 40000
	)
	pool := NewPool(capacity)
	f := newTestFile(t, pool)
	for pg := uint32(0); pg < nPages; pg++ {
		if _, err := f.Allocate(); err != nil {
			t.Fatal(err)
		}
	}
	// Materialize on disk so replay reads are plain hits/misses.
	for pg := uint32(0); pg < nPages; pg++ {
		fillPage(t, f, pg, 1)
	}
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	pool.dropFile(f)

	r := rand.New(rand.NewSource(7))
	zipf := rand.NewZipf(r, 1.1, 1, nPages-1)
	pages := make([]uint32, trace)
	for i := range pages {
		pages[i] = uint32(zipf.Uint64())
	}

	// Exact LRU simulator.
	inCache := map[uint32]bool{}
	order := []uint32{} // front = most recent
	lruHits := 0
	for _, pg := range pages {
		if inCache[pg] {
			lruHits++
			for i, q := range order {
				if q == pg {
					order = append(order[:i], order[i+1:]...)
					break
				}
			}
			order = append([]uint32{pg}, order...)
			continue
		}
		if len(order) == capacity {
			victim := order[len(order)-1]
			order = order[:len(order)-1]
			delete(inCache, victim)
		}
		inCache[pg] = true
		order = append([]uint32{pg}, order...)
	}

	before := pool.Stats()
	for _, pg := range pages {
		p, err := f.GetPage(pg)
		if err != nil {
			t.Fatal(err)
		}
		p.Release()
	}
	after := pool.Stats()

	clockRatio := float64(after.Hits-before.Hits) / float64(trace)
	lruRatio := float64(lruHits) / float64(trace)
	t.Logf("zipfian hit ratio: clock-sweep %.4f, exact LRU %.4f", clockRatio, lruRatio)
	if diff := lruRatio - clockRatio; diff > 0.05 {
		t.Errorf("clock-sweep hit ratio %.4f trails exact LRU %.4f by %.4f (> 0.05)", clockRatio, lruRatio, diff)
	}
	if ev := after.Evictions - before.Evictions; ev == 0 {
		t.Error("trace should have forced evictions")
	}
}
