package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"repro/internal/catalog"
	"repro/internal/storage"
	"repro/internal/storage/walfault"
)

// Crash-recovery suite. A "crash" is simulated by copying the database
// directory while the engine is still open: committed WAL records are
// durable (a commit flushes the log itself, or finds that a committer
// ahead of it already did), but dirty pool pages may or may not have
// reached the data files — exactly the state a kill -9 leaves behind.
// Records staged without a wait may be in the copy or not. The copy is
// then reopened and recovery is checked against what was acked.

// copyDir copies every regular file of src into dst (flat layout: the
// database directory has no subdirectories).
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		in, err := os.Open(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out, err := os.Create(filepath.Join(dst, e.Name()))
		if err != nil {
			in.Close()
			t.Fatal(err)
		}
		if _, err := io.Copy(out, in); err != nil {
			t.Fatal(err)
		}
		in.Close()
		if err := out.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// crashSnapshot captures the crash-state of dir into a fresh temp dir.
func crashSnapshot(t *testing.T, dir string) string {
	t.Helper()
	snap := t.TempDir()
	copyDir(t, dir, snap)
	return snap
}

// walBoundaries returns every byte offset of the log that ends a
// record (the header end first): the set of lengths a crash mid-append
// can leave a *fully valid* prefix at. The frame layout is the
// documented u32 length | u32 crc | body.
func walBoundaries(t *testing.T, path string) []int64 {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const headerSize, frameSize = 16, 8
	offs := []int64{headerSize}
	off := int64(headerSize)
	for off+frameSize <= int64(len(data)) {
		bodyLen := int64(binary.LittleEndian.Uint32(data[off : off+4]))
		next := off + frameSize + bodyLen
		if next > int64(len(data)) {
			break
		}
		off = next
		offs = append(offs, off)
	}
	return offs
}

func openDir(t *testing.T, dir string, poolPages int) *DB {
	t.Helper()
	db, err := Open(Config{Dir: dir, PoolPages: poolPages})
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return db
}

func tableIDs(t *testing.T, db *DB, table string) map[int64]bool {
	t.Helper()
	s := db.NewSession()
	defer s.Close()
	res, err := s.Exec("SELECT id FROM " + table)
	if err != nil {
		t.Fatalf("SELECT from %s: %v", table, err)
	}
	ids := make(map[int64]bool, len(res.Rows))
	for _, r := range res.Rows {
		ids[r[0].I] = true
	}
	return ids
}

// truncationScript is the testing/quick-generated shape of one crash
// scenario: a run of committed transactions (each inserting 1-3 rows)
// followed by one transaction still in flight at the crash.
type truncationScript struct {
	Sizes []uint8
	Tail  uint8
}

// TestRecoveryTruncationProperty is the core recovery property: for a
// WAL cut at EVERY record boundary, reopening yields exactly the rows
// of the transactions whose finish record lies inside the prefix — no
// lost committed row, no phantom uncommitted row.
func TestRecoveryTruncationProperty(t *testing.T) {
	check := func(sc truncationScript) bool {
		if len(sc.Sizes) > 5 {
			sc.Sizes = sc.Sizes[:5]
		}
		if len(sc.Sizes) == 0 {
			sc.Sizes = []uint8{1}
		}
		base := t.TempDir()
		db := openDir(t, base, 256)
		s := db.NewSession()
		if _, err := s.Exec("CREATE TABLE kd (id INTEGER PRIMARY KEY)"); err != nil {
			t.Fatal(err)
		}
		// Committed transactions, in program order == log order.
		var finished [][]int64
		next := int64(0)
		for _, raw := range sc.Sizes {
			n := 1 + int(raw%3)
			s.Begin()
			var rows []int64
			for j := 0; j < n; j++ {
				if _, err := s.Exec(fmt.Sprintf("INSERT INTO kd VALUES (%d)", next)); err != nil {
					t.Fatal(err)
				}
				rows = append(rows, next)
				next++
			}
			if err := s.Commit(); err != nil {
				t.Fatal(err)
			}
			finished = append(finished, rows)
		}
		// One transaction left in flight at the crash; its rows must
		// never survive, whatever the cut.
		tail := db.NewSession()
		tail.Begin()
		for j := 0; j <= int(sc.Tail%3); j++ {
			if _, err := tail.Exec(fmt.Sprintf("INSERT INTO kd VALUES (%d)", 100000+int64(j))); err != nil {
				t.Fatal(err)
			}
		}
		snap := crashSnapshot(t, base)
		db.Close()

		walPath := filepath.Join(snap, storage.WALFileName)
		ok := true
		for _, cut := range walBoundaries(t, walPath) {
			work := t.TempDir()
			copyDir(t, snap, work)
			wp := filepath.Join(work, storage.WALFileName)
			if err := os.Truncate(wp, cut); err != nil {
				t.Fatal(err)
			}
			// The prefix itself defines the expectation: the first k
			// transaction-commit records cover the first k finished
			// transactions (one sequential committer). Per-statement
			// WALCommit units don't count — a transaction's rows exist
			// only once its WALTxnCommit made it into the prefix.
			recs, _, _, err := storage.ReadWALRecords(wp)
			if err != nil {
				t.Fatal(err)
			}
			commits := 0
			for _, r := range recs {
				if r.Type == storage.WALTxnCommit {
					commits++
				}
			}
			want := map[int64]bool{}
			for _, rows := range finished[:commits] {
				for _, id := range rows {
					want[id] = true
				}
			}
			rdb := openDir(t, work, 256)
			got := tableIDs(t, rdb, "kd")
			rdb.Close()
			if len(got) != len(want) {
				t.Errorf("cut=%d: %d rows, want %d", cut, len(got), len(want))
				ok = false
				continue
			}
			for id := range want {
				if !got[id] {
					t.Errorf("cut=%d: lost committed row %d", cut, id)
					ok = false
				}
			}
			for id := range got {
				if id >= 100000 {
					t.Errorf("cut=%d: phantom uncommitted row %d", cut, id)
					ok = false
				}
			}
		}
		return ok
	}
	cfg := &quick.Config{
		MaxCount: 3,
		Rand:     rand.New(rand.NewSource(0xC0FFEE)),
	}
	if err := quick.Check(check, cfg); err != nil {
		t.Error(err)
	}
}

// TestRecoveryStopsAtCorruptTail: a bit flip inside the last record
// (not just a short tail) must fail its checksum, stop the scan there
// and still open cleanly with everything before it intact.
func TestRecoveryStopsAtCorruptTail(t *testing.T) {
	base := t.TempDir()
	db := openDir(t, base, 256)
	s := db.NewSession()
	if _, err := s.Exec("CREATE TABLE kd (id INTEGER PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	for txn := 0; txn < 2; txn++ {
		s.Begin()
		for j := 0; j < 2; j++ {
			if _, err := s.Exec(fmt.Sprintf("INSERT INTO kd VALUES (%d)", txn*10+j)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	snap := crashSnapshot(t, base)
	db.Close()

	// The last record in the log is the second transaction's finish
	// record; flipping its final byte invalidates its CRC.
	wp := filepath.Join(snap, storage.WALFileName)
	f, err := os.OpenFile(wp, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := f.Stat()
	var b [1]byte
	if _, err := f.ReadAt(b[:], st.Size()-1); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xFF
	if _, err := f.WriteAt(b[:], st.Size()-1); err != nil {
		t.Fatal(err)
	}
	f.Close()

	rdb := openDir(t, snap, 256) // must not error
	got := tableIDs(t, rdb, "kd")
	rdb.Close()
	for j := 0; j < 2; j++ {
		if !got[int64(j)] {
			t.Errorf("row %d of the intact first transaction lost", j)
		}
	}
	for j := 0; j < 2; j++ {
		if got[int64(10+j)] {
			t.Errorf("row %d redone past the corrupt finish record", 10+j)
		}
	}
}

// TestRecoveryUndoesFlushedUncommitted drives the STEAL path: a tiny
// pool forces dirty pages of a still-open transaction onto disk; after
// the crash, recovery must roll those stolen pages back to their
// before-images.
func TestRecoveryUndoesFlushedUncommitted(t *testing.T) {
	base := t.TempDir()
	db := openDir(t, base, 8) // 8 frames: eviction storm guaranteed
	s := db.NewSession()
	if _, err := s.Exec("CREATE TABLE kd (id INTEGER PRIMARY KEY, pad VARCHAR(512))"); err != nil {
		t.Fatal(err)
	}
	pad := make([]byte, 400)
	for i := range pad {
		pad[i] = 'x'
	}
	for i := 0; i < 5; i++ {
		if _, err := s.Exec(fmt.Sprintf("INSERT INTO kd VALUES (%d, '%s')", i, pad)); err != nil {
			t.Fatal(err)
		}
	}
	w0 := db.PoolStats().DiskWrite

	open := db.NewSession()
	open.Begin()
	for i := 100; i < 300; i++ {
		if _, err := open.Exec(fmt.Sprintf("INSERT INTO kd VALUES (%d, '%s')", i, pad)); err != nil {
			t.Fatal(err)
		}
	}
	if db.PoolStats().DiskWrite == w0 {
		t.Fatal("no dirty page was stolen: the test is not exercising undo")
	}
	snap := crashSnapshot(t, base)
	db.Close()

	rdb := openDir(t, snap, 256)
	got := tableIDs(t, rdb, "kd")
	rdb.Close()
	if len(got) != 5 {
		t.Errorf("rows after recovery = %d, want the 5 committed", len(got))
	}
	for i := 0; i < 5; i++ {
		if !got[int64(i)] {
			t.Errorf("committed row %d lost", i)
		}
	}
	for id := range got {
		if id >= 100 {
			t.Errorf("uncommitted stolen row %d survived recovery", id)
		}
	}
}

// TestCheckpointFsyncs: a checkpoint that does not fsync guarantees
// nothing. Every checkpoint must fsync the data files and the catalog.
func TestCheckpointFsyncs(t *testing.T) {
	db := openDir(t, t.TempDir(), 256)
	defer db.Close()
	s := db.NewSession()
	if _, err := s.Exec("CREATE TABLE kd (id INTEGER PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := s.Exec(fmt.Sprintf("INSERT INTO kd VALUES (%d)", i)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	f0 := db.PoolStats().Fsyncs
	c0 := catalog.Fsyncs()
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := db.PoolStats().Fsyncs; got <= f0 {
		t.Errorf("checkpoint issued no data-file fsync (%d -> %d)", f0, got)
	}
	if got := catalog.Fsyncs(); got < c0+2 {
		t.Errorf("checkpoint catalog save fsyncs = %d, want >= %d (temp file + directory)", got-c0, 2)
	}
}

// TestWALFsyncFailureSurfaces: when the log device fails, Commit must
// return the error instead of acking — and the log must stay failed.
func TestWALFsyncFailureSurfaces(t *testing.T) {
	var wf *walfault.File
	db, err := Open(Config{
		Dir:       t.TempDir(),
		PoolPages: 256,
		WALOpen:   walfault.Opener(func(f *walfault.File) { wf = f }),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s := db.NewSession()
	defer s.Close()
	if _, err := s.Exec("CREATE TABLE kd (id INTEGER PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("INSERT INTO kd VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	wf.FailSync(errors.New("injected: log device gone"))
	if _, err := s.Exec("INSERT INTO kd VALUES (2)"); err == nil {
		t.Fatal("commit acked although the WAL fsync failed")
	}
	// Sticky: the engine must keep refusing commits rather than ack
	// against a log it cannot make durable.
	if _, err := s.Exec("INSERT INTO kd VALUES (3)"); err == nil {
		t.Fatal("commit acked on a failed WAL")
	}
}
