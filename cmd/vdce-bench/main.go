// Command vdce-bench runs the reproduction experiment suite (E1-E10,
// indexed by experiments.All in internal/experiments/runner.go) and
// prints each experiment's table. These are the rows recorded in
// EXPERIMENTS.md.
//
//	vdce-bench            # full suite
//	vdce-bench -run E2,E4 # selected experiments
//	vdce-bench -quick     # reduced sweeps
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"vdce/internal/experiments"
)

func main() {
	runList := flag.String("run", "all", "comma-separated experiment IDs (E1..E10) or 'all'")
	quick := flag.Bool("quick", false, "shrink sweeps for a fast pass")
	flag.Parse()

	var ids []string
	if *runList == "all" {
		for _, e := range experiments.All() {
			ids = append(ids, e.ID)
		}
	} else {
		for _, id := range strings.Split(*runList, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	}
	failed := 0
	for _, id := range ids {
		e, err := experiments.ByID(id)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			failed++
			continue
		}
		t0 := time.Now()
		table, err := e.Run(*quick)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			failed++
			continue
		}
		fmt.Println(table)
		fmt.Printf("(%s finished in %v)\n\n", id, time.Since(t0).Round(time.Millisecond))
	}
	if failed > 0 {
		os.Exit(1)
	}
}
