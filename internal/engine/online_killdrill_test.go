package engine

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// The index-build kill drill: a child process runs a DML storm plus a
// CREATE INDEX / DROP INDEX loop and is SIGKILLed at random points —
// including mid-backfill, mid-catch-up and mid-publish. After recovery
// the invariants are:
//
//  1. the directory opens cleanly (a half-built index never wedges
//     recovery);
//  2. no catalog entry is left Building — open drops crash residue;
//  3. every index file on disk is referenced by the catalog and every
//     catalog index has its file (no orphans either way);
//  4. durability — if the child acked a CREATE (ack written only after
//     Exec returned), the index exists, fully published;
//  5. completeness — a published index finds, for a few probe values,
//     exactly the rows a scan of the table finds.

const (
	indexDrillDirEnv  = "INDEX_KILL_DRILL_DIR"
	indexDrillBaseEnv = "INDEX_KILL_DRILL_BASE"
)

// TestOnlineBuildChildMain is the child half: insert storm + index
// build/drop loop, until killed.
func TestOnlineBuildChildMain(t *testing.T) {
	dir := os.Getenv(indexDrillDirEnv)
	if dir == "" {
		t.Skip("re-exec child of TestOnlineBuildKillDrill")
	}
	base, err := strconv.ParseInt(os.Getenv(indexDrillBaseEnv), 10, 64)
	if err != nil {
		fmt.Printf("CHILD_ERR bad base: %v\n", err)
		os.Exit(3)
	}
	db, err := Open(Config{Dir: dir, PoolPages: 128})
	if err != nil {
		fmt.Printf("CHILD_ERR open: %v\n", err)
		os.Exit(3)
	}
	ack, err := os.OpenFile(filepath.Join(dir, "obacks.txt"),
		os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		fmt.Printf("CHILD_ERR ack file: %v\n", err)
		os.Exit(3)
	}
	fmt.Println("READY")
	for g := 0; g < 2; g++ {
		go func(g int) {
			s := db.NewSession()
			for n := int64(0); ; n++ {
				id := base + int64(g)*10_000_000 + n
				if _, err := s.Exec(fmt.Sprintf("INSERT INTO obk VALUES (%d, %d)", id, id%101)); err != nil {
					fmt.Printf("CHILD_ERR insert: %v\n", err)
					os.Exit(4)
				}
			}
		}(g)
	}
	s := db.NewSession()
	for cycle := int64(0); ; cycle++ {
		if _, err := s.Exec("CREATE INDEX obk_a ON obk (a)"); err != nil {
			fmt.Printf("CHILD_ERR create: %v\n", err)
			os.Exit(4)
		}
		fmt.Fprintf(ack, "C %d\n", cycle)
		// Ack the drop BEFORE executing it: once a drop may have started,
		// the index's absence after a crash is legitimate.
		fmt.Fprintf(ack, "d %d\n", cycle)
		if _, err := s.Exec("DROP INDEX obk_a"); err != nil {
			fmt.Printf("CHILD_ERR drop: %v\n", err)
			os.Exit(4)
		}
	}
}

// TestOnlineBuildKillDrill is the parent half: spawn, kill at a random
// point in the build/drop cycle, recover, verify.
func TestOnlineBuildKillDrill(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and SIGKILLs child processes")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	db := openDir(t, dir, 128)
	s := db.NewSession()
	if _, err := s.Exec("CREATE TABLE obk (id INTEGER PRIMARY KEY, a INTEGER)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		if _, err := s.Exec(fmt.Sprintf("INSERT INTO obk VALUES (%d, %d)", i, i%101)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(0xBEEF))
	const kills = 10
	for k := 0; k < kills; k++ {
		cmd := exec.Command(exe, "-test.run=^TestOnlineBuildChildMain$", "-test.v")
		cmd.Env = append(os.Environ(),
			indexDrillDirEnv+"="+dir,
			fmt.Sprintf("%s=%d", indexDrillBaseEnv, int64(k+1)*100_000_000))
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		readyCh := make(chan error, 1)
		go func() {
			sc := bufio.NewScanner(stdout)
			for sc.Scan() {
				line := sc.Text()
				if strings.Contains(line, "CHILD_ERR") {
					readyCh <- fmt.Errorf("child: %s", line)
					break
				}
				if strings.Contains(line, "READY") {
					readyCh <- nil
					break
				}
			}
			io.Copy(io.Discard, stdout)
		}()
		select {
		case err := <-readyCh:
			if err != nil {
				cmd.Process.Kill()
				cmd.Wait()
				t.Fatal(err)
			}
		case <-time.After(30 * time.Second):
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatal("child never became ready")
		}
		time.Sleep(time.Duration(10+rng.Intn(250)) * time.Millisecond)
		if err := cmd.Process.Kill(); err != nil {
			t.Fatal(err)
		}
		err = cmd.Wait()
		if cmd.ProcessState != nil && cmd.ProcessState.Exited() {
			t.Fatalf("kill %d: child exited by itself: %v", k, err)
		}

		// Recover and check the invariants.
		rdb := openDir(t, dir, 128)
		ix := rdb.cat.Index("obk_a")
		if ix != nil && ix.Building {
			t.Fatalf("kill %d: Building index survived recovery", k)
		}
		// File ↔ catalog agreement, both directions.
		if ix != nil {
			if _, err := os.Stat(rdb.indexPath("obk_a")); err != nil {
				t.Fatalf("kill %d: published index lost its file: %v", k, err)
			}
		}
		referenced := map[string]bool{}
		for _, cix := range rdb.cat.Indexes() {
			referenced[rdb.indexPath(cix.Name)] = true
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if strings.HasPrefix(e.Name(), "i_") && strings.HasSuffix(e.Name(), ".dat") {
				if !referenced[filepath.Join(dir, e.Name())] {
					t.Fatalf("kill %d: orphan index file %s survived recovery", k, e.Name())
				}
			}
		}
		// Durability: last complete ack "C <n>" means the CREATE INDEX
		// returned before the kill and no drop had started, so the index
		// must exist.
		lastAck := ""
		if raw, err := os.ReadFile(filepath.Join(dir, "obacks.txt")); err == nil {
			lines := strings.Split(string(raw), "\n")
			for i := len(lines) - 2; i >= 0; i-- { // last element is "" or torn
				if strings.HasPrefix(lines[i], "C ") || strings.HasPrefix(lines[i], "d ") {
					lastAck = lines[i][:1]
					break
				}
			}
		}
		if lastAck == "C" && ix == nil {
			t.Fatalf("kill %d: acked CREATE INDEX lost after recovery", k)
		}
		// Completeness: a published index answers a probe with the rows
		// a scan finds (a + 0 keeps the optimizer off the index).
		rs := rdb.NewSession()
		if ix != nil {
			for _, v := range []int{0, 5, 50, 100} {
				probe := fmt.Sprintf("SELECT COUNT(*) FROM obk WHERE a = %d", v)
				scan := fmt.Sprintf("SELECT COUNT(*) FROM obk WHERE a + 0 = %d", v)
				pr, sr := mustExec(t, rs, probe), mustExec(t, rs, scan)
				if !strings.Contains(pr.Plan.String(), "obk_a") || strings.Contains(sr.Plan.String(), "obk_a") {
					t.Fatalf("kill %d: probe plan %s, scan plan %s", k, pr.Plan, sr.Plan)
				}
				if got, want := pr.Rows[0][0].I, sr.Rows[0][0].I; got != want {
					t.Fatalf("kill %d: index obk_a finds %d rows with a = %d, a scan finds %d", k, got, v, want)
				}
			}
		}
		// The table itself must still be consistent enough to use, and a
		// fresh build must succeed whatever state the crash left.
		if ix == nil {
			if _, err := rs.Exec("CREATE INDEX obk_a ON obk (a)"); err != nil {
				t.Fatalf("kill %d: rebuild after recovery failed: %v", k, err)
			}
		}
		if _, err := rs.Exec("DROP INDEX obk_a"); err != nil {
			t.Fatalf("kill %d: drop after recovery failed: %v", k, err)
		}
		rs.Close()
		if err := rdb.Close(); err != nil {
			t.Fatal(err)
		}
		// Reset acks for the next round (the drop above invalidated them).
		os.Remove(filepath.Join(dir, "obacks.txt"))
	}
}
