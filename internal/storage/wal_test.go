package storage

import (
	"path/filepath"
	"testing"
)

// stagedCaps returns the capacities of the WAL's staging buffers.
func stagedCaps(w *WAL) (buf, spare int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return cap(w.buf), cap(w.spare)
}

// TestWALStagingBufferRetention: a unit that stages several MiB of page
// images grows the staging buffer far past walRetainedBuf, and after the
// flush neither buffer keeps that size; a small commit afterwards still
// recycles the retained buffer, so a group commit allocates nothing.
func TestWALStagingBufferRetention(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(filepath.Join(dir, "wal"), WALOptions{GroupCommitInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	const pages = 640 // a before- and an after-image each: about 5 MiB staged
	f, err := OpenFile(filepath.Join(dir, "data"), NewPool(2*pages))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.AttachWAL(w)
	for i := 0; i < pages; i++ {
		if _, err := f.Allocate(); err != nil {
			t.Fatal(err)
		}
	}

	tx := w.Begin()
	f.SetWALTxn(tx)
	for pg := uint32(0); pg < pages; pg++ {
		p, err := f.GetPage(pg)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.WillModify(); err != nil {
			t.Fatal(err)
		}
		p.Data[0]++
		p.MarkDirty()
		p.Release()
	}
	f.SetWALTxn(nil)
	if grown, _ := stagedCaps(w); grown < 4<<20 {
		t.Fatalf("the unit staged only %d bytes", grown)
	}
	if err := tx.Commit(true); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if buf, spare := stagedCaps(w); buf > walRetainedBuf || spare > walRetainedBuf {
		t.Errorf("after the flush the staging buffers keep %d and %d bytes, cap %d", buf, spare, walRetainedBuf)
	}

	if err := w.CommitTxn(7, true); err != nil { // primes the retained pair
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := w.CommitTxn(7, true); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("a small commit allocates %.1f times: the staging buffer is not recycled", allocs)
	}
	if _, spare := stagedCaps(w); spare == 0 {
		t.Error("no staging buffer is kept for reuse")
	}
}
