// Alerting shows the storage daemon's active alerting: threshold rules
// evaluated after each poll, notifying the DBA of defined database
// events — here, session pressure and deadlocks, like the paper's
// "reaching the maximum number of users" example. It ends with the
// locks diagram over the polled statistics (the paper's Fig. 8).
//
//	go run ./examples/alerting
package main

import (
	"fmt"
	"log"
	"os"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/daemon"
)

func main() {
	dir, err := os.MkdirTemp("", "alerting-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	notify := func(e daemon.Event) {
		fmt.Printf("[ALERT %s] %s reached %.0f\n", e.When.Format("15:04:05.000"), e.Alert, e.Value)
	}
	sys, err := core.Open(core.Options{
		Dir: dir,
		Alerts: []daemon.Alert{
			{
				Name:      "session-pressure",
				Query:     "SELECT current_sessions FROM ima_statistics",
				Op:        ">=",
				Threshold: 4,
				Action:    notify,
			},
			{
				Name:      "deadlocks-detected",
				Query:     "SELECT deadlocks FROM ima_statistics",
				Op:        ">",
				Threshold: 0,
				Action:    notify,
			},
			{
				// A deliberately broken rule: the daemon isolates it —
				// the failure is logged and counted in AlertErrors, the
				// other alerts and the poll itself keep running.
				Name:      "broken-rule",
				Query:     "SELECT no_such_column FROM nowhere",
				Op:        ">",
				Threshold: 0,
				Action:    notify,
			},
		},
		Logf: log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	s := sys.Session()
	s.Exec("CREATE TABLE a (id INTEGER PRIMARY KEY, v INTEGER)")
	s.Exec("CREATE TABLE b (id INTEGER PRIMARY KEY, v INTEGER)")
	s.Exec("INSERT INTO a VALUES (1, 0), (2, 0)")
	s.Exec("INSERT INTO b VALUES (1, 0), (2, 0)")
	s.Close()

	// Simulate load: several concurrent sessions, two of them running
	// transactions that update a and b in opposite orders so the lock
	// manager occasionally declares a deadlock victim.
	var wg sync.WaitGroup
	stopAt := time.Now().Add(400 * time.Millisecond)
	for w := 0; w < 6; w++ {
		wg.Add(1)
		w := w
		go func() {
			defer wg.Done()
			sess := sys.Session()
			defer sess.Close()
			for time.Now().Before(stopAt) {
				first, second := "a", "b"
				if w%2 == 1 {
					first, second = "b", "a"
				}
				sess.Begin()
				if _, err := sess.Exec("UPDATE " + first + " SET v = v + 1 WHERE id = 1"); err == nil {
					sess.Exec("UPDATE " + second + " SET v = v + 1 WHERE id = 1")
				}
				sess.Commit()
			}
		}()
	}
	// Poll while the load runs: alerts fire from the daemon loop.
	pollDone := make(chan struct{})
	go func() {
		defer close(pollDone)
		for i := 0; i < 5; i++ {
			time.Sleep(100 * time.Millisecond)
			if err := sys.Poll(); err != nil {
				log.Println("poll:", err)
				return
			}
		}
	}()
	wg.Wait()
	<-pollDone

	ls := sys.DB.LockStats()
	fmt.Printf("\nfinal lock statistics: %d grants, %d waits, %d deadlocks\n",
		ls.Grants, ls.Waits, ls.Deadlocks)
	st := sys.Daemon.Stats()
	fmt.Printf("daemon: %d polls, %d alerts fired, %d alert errors (broken rule isolated, polling survived)\n",
		st.Polls, st.AlertsFired, st.AlertErrors)

	diagram, err := sys.Analyzer.LocksDiagram()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%s", diagram)
}
