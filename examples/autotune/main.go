// Autotune drives the paper's full control loop (Figure 1) on the
// synthetic NREF database: load → run workload under monitoring →
// persist with the storage daemon → analyze → implement → measure the
// improvement. The analyzer report it prints carries the cost diagram
// (the paper's Fig. 6) and the recommendations behind Fig. 7.
//
//	go run ./examples/autotune
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/nref"
)

func main() {
	dir, err := os.MkdirTemp("", "autotune-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	sys, err := core.Open(core.Options{Dir: dir, PoolPages: 2048})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	const scale = 4000
	fmt.Printf("loading synthetic NREF data (scale %d)...\n", scale)
	if err := nref.NewGenerator(scale, 7).Load(sys.DB); err != nil {
		log.Fatal(err)
	}

	workload := nref.Complex50(scale)
	run := func(label string) time.Duration {
		s := sys.Session()
		defer s.Close()
		start := time.Now()
		for _, q := range workload {
			if _, err := s.Exec(q); err != nil {
				log.Fatalf("workload: %v", err)
			}
		}
		d := time.Since(start)
		fmt.Printf("%-22s %8.0f ms\n", label, float64(d.Milliseconds()))
		return d
	}

	// 1. Monitoring: the sensors record every statement while the
	//    workload runs.
	before := run("untuned workload:")

	// 2. Storing: one daemon cycle persists the collected data.
	if err := sys.Poll(); err != nil {
		log.Fatal(err)
	}

	// 3. Analysing.
	rep, err := sys.Analyze()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%s\n", rep)

	// 4. Implementing.
	if err := sys.Apply(rep); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nrecommendations applied; monitoring switched off for the re-run")
	sys.Monitor.SetEnabled(false)

	after := run("tuned workload:")
	fmt.Printf("\nruntime after tuning: %.0f%% of the untuned run\n",
		float64(after)/float64(before)*100)
}
