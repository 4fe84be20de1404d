package engine

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/catalog"
	"repro/internal/sqltypes"
	"repro/internal/storage"
)

// expectedIndexEntries rebuilds from scratch what the secondary index
// should contain: one tid-suffixed key per heap version (deleted
// versions keep their entries until vacuum reclaims both). Callers
// must have quiesced DML first.
func expectedIndexEntries(t *testing.T, db *DB, table string, cols []string) map[string]string {
	t.Helper()
	h := db.handle(table)
	want := map[string]string{}
	err := h.heap.Scan(func(tid storage.TID, rec []byte) (bool, error) {
		row, err := sqltypes.DecodeRow(storage.VersionPayload(rec), nil)
		if err != nil {
			return false, err
		}
		key, err := keyFor(h.meta.Schema, row, cols)
		if err != nil {
			return false, err
		}
		want[string(tidSuffix(key, tid))] = string(tidBytes(tid))
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// actualIndexEntries walks the published index.
func actualIndexEntries(t *testing.T, db *DB, table, index string) map[string]string {
	t.Helper()
	h := db.handle(table)
	db.mu.Lock()
	bt := h.indexes[strings.ToLower(index)]
	db.mu.Unlock()
	if bt == nil {
		t.Fatalf("index %s not published on %s", index, table)
	}
	got := map[string]string{}
	it := bt.Seek(nil, nil)
	for it.Next() {
		got[string(it.Key())] = string(it.Value())
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestOnlineCreateIndexConcurrentDMLEquivalence is the core online-build
// correctness test: CREATE INDEX ... ONLINE runs while writer goroutines
// insert and delete rows the whole time. Once the build returns and the
// writers stop, the index must contain exactly one entry per live heap
// row — the side-log replay may not lose, duplicate or resurrect
// anything. Run with -race.
func TestOnlineCreateIndexConcurrentDMLEquivalence(t *testing.T) {
	db := openDir(t, t.TempDir(), 128)
	defer db.Close()
	s := db.NewSession()
	if _, err := s.Exec("CREATE TABLE ob (id INTEGER PRIMARY KEY, a INTEGER)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if _, err := s.Exec(fmt.Sprintf("INSERT INTO ob VALUES (%d, %d)", i, i%97)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	var stop atomic.Bool
	var wg sync.WaitGroup
	errCh := make(chan error, 4)
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ws := db.NewSession()
			defer ws.Close()
			rng := rand.New(rand.NewSource(int64(g) + 7))
			next := 10_000 + g*100_000
			for !stop.Load() {
				if rng.Intn(3) == 0 {
					victim := rng.Intn(2000)
					if _, err := ws.Exec(fmt.Sprintf("DELETE FROM ob WHERE id = %d", victim)); err != nil {
						errCh <- err
						return
					}
				} else {
					if _, err := ws.Exec(fmt.Sprintf("INSERT INTO ob VALUES (%d, %d)", next, next%89)); err != nil {
						errCh <- err
						return
					}
					next++
				}
			}
		}(g)
	}

	bs := db.NewSession()
	_, err := bs.Exec("CREATE INDEX ob_a ON ob (a) ONLINE")
	bs.Close()
	stop.Store(true)
	wg.Wait()
	close(errCh)
	for werr := range errCh {
		t.Fatal(werr)
	}
	if err != nil {
		t.Fatal(err)
	}

	if ix := db.cat.Index("ob_a"); ix == nil || ix.Building {
		t.Fatalf("index not published cleanly: %+v", ix)
	}
	want := expectedIndexEntries(t, db, "ob", []string{"a"})
	got := actualIndexEntries(t, db, "ob", "ob_a")
	if len(want) != len(got) {
		t.Fatalf("index has %d entries, heap implies %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("index missing or mismatching entry for a live row")
		}
	}

	// The published index must also be maintained by ordinary DML now.
	s2 := db.NewSession()
	if _, err := s2.Exec("INSERT INTO ob VALUES (999999, 42)"); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	want = expectedIndexEntries(t, db, "ob", []string{"a"})
	got = actualIndexEntries(t, db, "ob", "ob_a")
	if len(want) != len(got) {
		t.Fatalf("post-publish DML not maintained: index %d entries, heap implies %d", len(got), len(want))
	}
}

// TestOnlineCreateIndexUniqueDuplicateRollsBack: a unique online build
// over data with duplicates must fail at the final verification and
// leave nothing behind — no catalog entry, no index file, no side-log.
func TestOnlineCreateIndexUniqueDuplicateRollsBack(t *testing.T) {
	db := openDir(t, t.TempDir(), 64)
	defer db.Close()
	s := db.NewSession()
	if _, err := s.Exec("CREATE TABLE du (id INTEGER PRIMARY KEY, a INTEGER)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := s.Exec(fmt.Sprintf("INSERT INTO du VALUES (%d, %d)", i, i%3)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Exec("CREATE UNIQUE INDEX du_a ON du (a) ONLINE"); err == nil {
		t.Fatal("unique online build over duplicates succeeded")
	} else if !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("unexpected error: %v", err)
	}
	s.Close()
	if db.cat.Index("du_a") != nil {
		t.Fatal("failed build left a catalog entry")
	}
	if _, err := os.Stat(db.indexPath("du_a")); !os.IsNotExist(err) {
		t.Fatalf("failed build left the index file (stat err %v)", err)
	}
	if db.handle("du").sideLog.Load() != nil {
		t.Fatal("failed build left the side-log installed")
	}
}

// TestCreateIndexErrorPathCleanup is the regression test for the
// headline bug: an error in the middle of the offline build loop (here
// an undecodable heap record) must remove the half-built index file AND
// the catalog entry — the seed leaked both on every error except
// duplicate-key.
func TestCreateIndexErrorPathCleanup(t *testing.T) {
	db := openDir(t, t.TempDir(), 64)
	defer db.Close()
	s := db.NewSession()
	if _, err := s.Exec("CREATE TABLE fz (id INTEGER PRIMARY KEY, a INTEGER)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := s.Exec(fmt.Sprintf("INSERT INTO fz VALUES (%d, %d)", i, i)); err != nil {
			t.Fatal(err)
		}
	}
	// Inject the fault: a record the row codec cannot decode, planted
	// directly in the heap.
	h := db.handle("fz")
	badTID, err := h.heap.Insert([]byte{0xFF, 0xFE, 0xFD})
	if err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		"CREATE INDEX fz_a ON fz (a)",
		"CREATE INDEX fz_a ON fz (a) ONLINE",
	} {
		if _, err := s.Exec(sql); err == nil {
			t.Fatalf("%s over a corrupt record succeeded", sql)
		}
		if db.cat.Index("fz_a") != nil {
			t.Fatalf("%s: dangling catalog entry after failure", sql)
		}
		if _, err := os.Stat(db.indexPath("fz_a")); !os.IsNotExist(err) {
			t.Fatalf("%s: leaked index file after failure (stat err %v)", sql, err)
		}
	}
	// With the fault removed the same name must be reusable — nothing
	// was reserved by the failed attempts.
	if err := h.heap.Delete(badTID); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("CREATE INDEX fz_a ON fz (a)"); err != nil {
		t.Fatalf("rebuild after cleanup failed: %v", err)
	}
	s.Close()
}

// TestOpenDropsBuildingIndex: a Building catalog entry (crash mid
// online build) is dropped, with its file, at the next open.
func TestOpenDropsBuildingIndex(t *testing.T) {
	dir := t.TempDir()
	db := openDir(t, dir, 64)
	s := db.NewSession()
	if _, err := s.Exec("CREATE TABLE bt1 (id INTEGER PRIMARY KEY, a INTEGER)"); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Simulate the crash window: a Building entry plus a half-built file.
	if err := db.cat.AddIndex(&catalog.Index{
		Name: "bt1_a", Table: "bt1", Columns: []string{"a"}, Building: true,
	}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(db.indexPath("bt1_a"), []byte("half-built"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := openDir(t, dir, 64)
	defer db2.Close()
	if db2.cat.Index("bt1_a") != nil {
		t.Fatal("Building index survived reopen")
	}
	if _, err := os.Stat(db2.indexPath("bt1_a")); !os.IsNotExist(err) {
		t.Fatalf("half-built index file survived reopen (stat err %v)", err)
	}
	// And the name is reusable.
	s2 := db2.NewSession()
	if _, err := s2.Exec("CREATE INDEX bt1_a ON bt1 (a)"); err != nil {
		t.Fatalf("rebuilding the dropped index failed: %v", err)
	}
	s2.Close()
}

// TestOpenSweepsOrphanFiles: data-shaped files no catalog entry
// references (the residue of a DROP TABLE cut down between catalog save
// and file removal) are deleted at open.
func TestOpenSweepsOrphanFiles(t *testing.T) {
	dir := t.TempDir()
	db := openDir(t, dir, 64)
	s := db.NewSession()
	if _, err := s.Exec("CREATE TABLE keepme (id INTEGER PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("INSERT INTO keepme VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	for _, orphan := range []string{"t_ghost.dat", "p_ghost.dat", "i_ghost.dat"} {
		if err := os.WriteFile(filepath.Join(dir, orphan), []byte("residue"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	db2 := openDir(t, dir, 64)
	defer db2.Close()
	for _, orphan := range []string{"t_ghost.dat", "p_ghost.dat", "i_ghost.dat"} {
		if _, err := os.Stat(filepath.Join(dir, orphan)); !os.IsNotExist(err) {
			t.Fatalf("orphan %s survived reopen (stat err %v)", orphan, err)
		}
	}
	ids := tableIDs(t, db2, "keepme")
	if !ids[1] {
		t.Fatal("referenced table was damaged by the orphan sweep")
	}
}

// TestOpenReportsMissingTableFile: a catalog entry whose data file
// vanished (external deletion, or the old remove-files-first DROP TABLE
// order) must fail the open with a diagnosable error instead of
// silently serving an empty table.
func TestOpenReportsMissingTableFile(t *testing.T) {
	dir := t.TempDir()
	db := openDir(t, dir, 64)
	s := db.NewSession()
	if _, err := s.Exec("CREATE TABLE gone (id INTEGER PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("INSERT INTO gone VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	s.Close()
	path := db.tablePath("gone")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	_, err := Open(Config{Dir: dir, PoolPages: 64})
	if err == nil {
		t.Fatal("open succeeded with a missing table data file")
	}
	if !strings.Contains(err.Error(), "missing") {
		t.Fatalf("undiagnosable error: %v", err)
	}
}

// TestDropTableRemovesEverything: the reordered (catalog-first) drop
// leaves neither catalog state nor files.
func TestDropTableRemovesEverything(t *testing.T) {
	dir := t.TempDir()
	db := openDir(t, dir, 64)
	defer db.Close()
	s := db.NewSession()
	for _, sql := range []string{
		"CREATE TABLE dr (id INTEGER PRIMARY KEY, a INTEGER)",
		"INSERT INTO dr VALUES (1, 1)",
		"CREATE INDEX dr_a ON dr (a)",
		"DROP TABLE dr",
	} {
		if _, err := s.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	s.Close()
	if db.cat.Table("dr") != nil || db.cat.Index("dr_a") != nil {
		t.Fatal("catalog still references the dropped table")
	}
	for _, p := range []string{db.tablePath("dr"), db.indexPath("dr_a")} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("dropped table left %s behind (stat err %v)", p, err)
		}
	}
}
