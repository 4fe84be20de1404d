// Command monitord runs the storage daemon against an existing
// monitored database directory created with the core API or ingresd:
// it polls the monitor on the configured interval, appends the data to
// the workload database, prunes expired rows and prints fired alerts.
//
//	monitord -dir /tmp/mydb -interval 30s -retention 168h
//
// Because the engine is embedded, monitord opens the databases itself;
// it demonstrates running the collection loop as a long-lived process,
// like the paper's daemon.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/telemetry"
)

func main() {
	var (
		dir           = flag.String("dir", "./ingresdb", "database directory (as used by ingresd)")
		interval      = flag.Duration("interval", daemon.DefaultInterval, "polling interval")
		retention     = flag.Duration("retention", daemon.DefaultRetention, "workload retention window")
		maxSess       = flag.Float64("alert-sessions", 0, "fire an alert when peak sessions reach this value (0 = off)")
		telemetryAddr = flag.String("telemetry.addr", "", "serve Prometheus /metrics and /debug/pprof on this address (e.g. 127.0.0.1:9090); keep it on loopback or a management network")
	)
	flag.Parse()

	var alerts []daemon.Alert
	if *maxSess > 0 {
		alerts = append(alerts, daemon.Alert{
			Name:      "max-sessions",
			Query:     "SELECT peak_sessions FROM ima_statistics",
			Op:        ">=",
			Threshold: *maxSess,
			Action: func(e daemon.Event) {
				fmt.Printf("[alert] %s: value %.0f at %s\n", e.Alert, e.Value, e.When.Format(time.RFC3339))
			},
		})
	}
	sys, err := core.Open(core.Options{
		Dir:            *dir,
		DaemonInterval: *interval,
		Retention:      *retention,
		Alerts:         alerts,
		// Transient poll failures and broken alert rules are logged and
		// survived, not fatal: the daemon retries with backoff, and the
		// workload sums that did not land wait in the monitor until the
		// workload DB recovers.
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "monitord:", err)
		os.Exit(1)
	}
	defer sys.Close()
	if *telemetryAddr != "" {
		ts, err := telemetry.Serve(*telemetryAddr, sys.Telemetry)
		if err != nil {
			fmt.Fprintln(os.Stderr, "monitord:", err)
			os.Exit(1)
		}
		defer ts.Close()
		fmt.Printf("monitord: telemetry on http://%s/metrics (pprof under /debug/pprof/)\n", ts.Addr())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	fmt.Printf("monitord: polling every %s, retention %s (ctrl-c to stop)\n", *interval, *retention)
	if err := sys.RunDaemon(ctx); err != nil && ctx.Err() == nil {
		fmt.Fprintln(os.Stderr, "monitord:", err)
		os.Exit(1)
	}
	st := sys.Daemon.Stats()
	fmt.Printf("monitord: %d polls (%d errors, %d retries), %d rows appended, %d pruned, %d alerts (%d alert errors)\n",
		st.Polls, st.PollErrors, st.Retries, st.RowsAppended, st.RowsPruned, st.AlertsFired, st.AlertErrors)
	if st.CarryoverDepth > 0 {
		fmt.Printf("monitord: %d workload rows did not land in the last poll\n", st.CarryoverDepth)
	}
	if n := sys.Monitor.WorkloadDropped(); n > 0 {
		fmt.Printf("monitord: the workload sums of %d executions were dropped\n", n)
	}
}
