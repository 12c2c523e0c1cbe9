// Command experiments regenerates the paper's experiments (E1-E8), printing
// paper-style tables, plus E9, the shrink phase's quality-versus-cost
// trade-off; `experiments -h` lists them. The decision-altering invariant
// (Definition II.3) lives in the property-based test suite.
//
// Usage:
//
//	experiments [-e all|e1|e2|e3|e4|e5|e6|e7|e8|e9] [-quick]
//
// -quick shrinks workloads for fast smoke runs (used by CI and the test
// suite); default sizes run the full workloads.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
)

func main() {
	log.SetFlags(0)
	experiments := []struct {
		id   string
		name string
		run  func(quick bool) error
	}{
		{"e1", "End-to-end architecture (Fig. 1)", runE1},
		{"e2", "Canned queries Q1-Q6 (Fig. 2)", runE2},
		{"e3", "Demo user journey, five applicants (Fig. 3)", runE3},
		{"e4", "Future-model accuracy vs horizon (drift claim)", runE4},
		{"e5", "Candidate-search convergence (Sec. II-A claim)", runE5},
		{"e6", "Parallel generator speedup (Sec. II-B claim)", runE6},
		{"e7", "Diverse top-k vs greedy (Sec. II-B claim)", runE7},
		{"e8", "Scale: ingest and query latency (Sec. III)", runE8},
		{"e9", "Shrink rounds: quality vs cost", runE9},
	}
	which := flag.String("e", "all", "experiment id (e1..e9) or all")
	quick := flag.Bool("quick", false, "shrink workloads for a fast smoke run")
	flag.Usage = func() {
		out := flag.CommandLine.Output()
		fmt.Fprintln(out, "usage: experiments [-e all|e1..e9] [-quick]\n\nexperiments:")
		for _, e := range experiments {
			fmt.Fprintf(out, "  %s  %s\n", e.id, e.name)
		}
		fmt.Fprintln(out, "\nflags:")
		flag.PrintDefaults()
	}
	flag.Parse()

	ran := false
	for _, e := range experiments {
		if *which != "all" && !strings.EqualFold(*which, e.id) {
			continue
		}
		ran = true
		fmt.Printf("\n================ %s: %s ================\n", strings.ToUpper(e.id), e.name)
		if err := e.run(*quick); err != nil {
			log.Fatalf("%s failed: %v", e.id, err)
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *which)
		os.Exit(2)
	}
}
