package netsql

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/ima"
	"repro/internal/monitor"
	"repro/internal/storage/walfault"
)

func startServer(t *testing.T) (string, *engine.DB) {
	t.Helper()
	return startServerOn(t, engine.Config{Dir: t.TempDir(), PoolPages: 256})
}

// startServerOn serves a database opened with cfg plus a monitor.
func startServerOn(t *testing.T, cfg engine.Config) (string, *engine.DB) {
	t.Helper()
	mon := monitor.New(monitor.Config{})
	cfg.Monitor = mon
	db, err := engine.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ima.Register(ima.Sources{DB: db, Mon: mon}); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(db)
	ctx, cancel := context.WithCancel(context.Background())
	addr, err := srv.Listen(ctx, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cancel()
		srv.Close()
		db.Close()
	})
	return addr.String(), db
}

func TestRemoteRoundTrip(t *testing.T) {
	addr, _ := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Exec("CREATE TABLE r (id INTEGER PRIMARY KEY, v VARCHAR(16))"); err != nil {
		t.Fatal(err)
	}
	resp, err := c.Exec("INSERT INTO r VALUES (1, 'x'), (2, 'y')")
	if err != nil {
		t.Fatal(err)
	}
	if resp.RowsAffected != 2 {
		t.Errorf("rows affected = %d", resp.RowsAffected)
	}
	resp, err = c.Exec("SELECT id, v FROM r ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Rows) != 2 || resp.Rows[0][0].I != 1 || resp.Rows[1][1].S != "y" {
		t.Errorf("rows: %+v", resp.Rows)
	}
	if len(resp.Columns) != 2 || resp.Columns[0] != "id" {
		t.Errorf("columns: %v", resp.Columns)
	}
}

// TestRemoteMonitoring is the paper's point: the monitoring data is
// one remote SQL query away, no extra protocol.
func TestRemoteMonitoring(t *testing.T) {
	addr, _ := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Exec("CREATE TABLE w (id INTEGER PRIMARY KEY)")
	c.Exec("INSERT INTO w VALUES (1)")
	c.Exec("SELECT COUNT(*) FROM w")

	resp, err := c.Exec("SELECT query_text, frequency FROM ima_statements WHERE kind = 'SELECT'")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range resp.Rows {
		if strings.Contains(r[0].S, "COUNT(*) FROM w") {
			found = true
		}
	}
	if !found {
		t.Errorf("remote monitoring query missed the statement: %+v", resp.Rows)
	}
	resp, err = c.Exec("SELECT statements FROM ima_statistics")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Rows[0][0].I < 3 {
		t.Errorf("statistics: %+v", resp.Rows)
	}
}

func TestRemoteErrorsKeepSessionAlive(t *testing.T) {
	addr, _ := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec("SELECT * FROM missing"); err == nil {
		t.Fatal("remote error not surfaced")
	}
	// The session survives the error.
	if _, err := c.Exec("CREATE TABLE ok (a INTEGER PRIMARY KEY)"); err != nil {
		t.Fatalf("session dead after error: %v", err)
	}
}

func TestRemoteTransactions(t *testing.T) {
	addr, db := startServer(t)
	c1, _ := Dial(addr)
	defer c1.Close()
	if _, err := c1.Exec("CREATE TABLE tx (id INTEGER PRIMARY KEY, n INTEGER)"); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Exec("INSERT INTO tx VALUES (1, 0)"); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Exec("BEGIN"); err == nil {
		t.Fatal("a second BEGIN inside the open transaction succeeded")
	}
	// Readers and inserts take no lock; an update holds its row lock
	// until COMMIT.
	if _, err := c1.Exec("UPDATE tx SET n = 1 WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	if db.LockStats().Held == 0 {
		t.Error("remote transaction holds no locks")
	}
	if _, err := c1.Exec("COMMIT"); err != nil {
		t.Fatal(err)
	}
	if db.LockStats().Held != 0 {
		t.Error("locks leaked after remote COMMIT")
	}
}

// TestRemoteTransactionControlForms: BEGIN, COMMIT and ROLLBACK are
// matched in any case, around whitespace and one trailing ';', as every
// other statement accepts a trailing ';'.
func TestRemoteTransactionControlForms(t *testing.T) {
	addr, _ := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec("CREATE TABLE tf (id INTEGER PRIMARY KEY);"); err != nil {
		t.Fatal(err)
	}
	count := func() int64 {
		t.Helper()
		res, err := c.Exec("SELECT COUNT(*) FROM tf")
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows[0][0].I
	}
	forms := []struct{ begin, end string }{
		{"Begin", "Commit"},
		{" BEGIN ", "  COMMIT\t"},
		{"BEGIN;", "COMMIT;"},
		{"begin ;\n", "commit ; "},
		{"BEGIN;", "Rollback;"},
		{" rollback ", ""}, // a ROLLBACK outside a transaction is a no-op
	}
	var want int64
	for i, f := range forms {
		if f.end == "" {
			if _, err := c.Exec(f.begin); err != nil {
				t.Fatalf("%q: %v", f.begin, err)
			}
			continue
		}
		if _, err := c.Exec(f.begin); err != nil {
			t.Fatalf("%q: %v", f.begin, err)
		}
		if _, err := c.Exec("BEGIN"); err == nil {
			t.Fatalf("%q opened no transaction: a second BEGIN succeeded", f.begin)
		}
		if _, err := c.Exec(fmt.Sprintf("INSERT INTO tf VALUES (%d)", i)); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Exec(f.end); err != nil {
			t.Fatalf("%q: %v", f.end, err)
		}
		if !strings.HasPrefix(strings.ToUpper(strings.TrimSpace(f.end)), "ROLLBACK") {
			want++
		}
		if n := count(); n != want {
			t.Fatalf("after %q ... %q: %d rows, want %d", f.begin, f.end, n, want)
		}
	}
	// Only the bare keyword is transaction control; anything else is a
	// statement for the parser.
	for _, sql := range []string{"BEGIN;;", "BEGIN WORK", "BEGINX"} {
		if _, err := c.Exec(sql); err == nil {
			t.Errorf("%q was accepted", sql)
		}
	}
}

// TestRemoteCommitSurfacesFsyncFailure: a COMMIT whose durability wait
// fails aborts the transaction, and the remote client is told so.
func TestRemoteCommitSurfacesFsyncFailure(t *testing.T) {
	var wf *walfault.File
	addr, db := startServerOn(t, engine.Config{
		Dir:       t.TempDir(),
		PoolPages: 256,
		WALOpen:   walfault.Opener(func(f *walfault.File) { wf = f }),
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, sql := range []string{"CREATE TABLE fs (id INTEGER PRIMARY KEY)", "BEGIN", "INSERT INTO fs VALUES (1)"} {
		if _, err := c.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	wf.FailSync(errors.New("injected: log device gone"))
	if _, err := c.Exec("COMMIT"); err == nil {
		t.Fatal("remote COMMIT acked although the WAL fsync failed")
	}
	s := db.NewSession()
	defer s.Close()
	res, err := s.Exec("SELECT COUNT(*) FROM fs")
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Rows[0][0].I; n != 0 {
		t.Fatalf("the failed COMMIT's row is visible: COUNT(*) = %d", n)
	}
}

func TestConcurrentRemoteClients(t *testing.T) {
	addr, _ := startServer(t)
	setup, _ := Dial(addr)
	if _, err := setup.Exec("CREATE TABLE cc (id INTEGER PRIMARY KEY, v INTEGER)"); err != nil {
		t.Fatal(err)
	}
	setup.Close()

	const clients = 8
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		g := g
		go func() {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for i := 0; i < 20; i++ {
				id := g*1000 + i
				if _, err := c.Exec(fmt.Sprintf("INSERT INTO cc VALUES (%d, %d)", id, i)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	check, _ := Dial(addr)
	defer check.Close()
	resp, err := check.Exec("SELECT COUNT(*) FROM cc")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Rows[0][0].I != clients*20 {
		t.Errorf("rows = %v, want %d", resp.Rows[0][0], clients*20)
	}
}

func TestBadRequestLine(t *testing.T) {
	addr, _ := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Raw garbage through the connection: server answers with an error
	// line and keeps going.
	if _, err := c.conn.Write([]byte("this is not json\n")); err != nil {
		t.Fatal(err)
	}
	if !c.sc.Scan() {
		t.Fatal("no response to bad request")
	}
	if !strings.Contains(c.sc.Text(), "bad request") {
		t.Errorf("response: %s", c.sc.Text())
	}
	if _, err := c.Exec("CREATE TABLE g (a INTEGER PRIMARY KEY)"); err != nil {
		t.Fatalf("connection dead after bad request: %v", err)
	}
}
