// Command vcachefuzz runs a consistency-model fuzzing campaign: seeded
// random workload programs execute with the Table 2 state×transition
// coverage map attached and the stale-data oracle as ground truth.
// Every coverage-novel (or, should one appear, oracle-violating) run is
// shrunk by the delta-debugging minimizer to a 1-minimal witness and
// written to the corpus directory as a replayable trace export — the
// same artifact `vcachesim -replay` consumes.
//
// Usage:
//
//	vcachefuzz -seed 1 -budget 400 -corpus corpus/
//	vcachefuzz -selftest
//
// -selftest runs the default campaign and exits non-zero unless it
// reaches full Table 2 coverage (48/48 cells) with every witness
// replaying cleanly — the fuzzer's own acceptance check.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"vcache/internal/core"
	"vcache/internal/fuzz"
	"vcache/internal/replay"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("vcachefuzz: ")
	// A bad flag is one line on stderr, not the flag list; -h prints it.
	flag.CommandLine.Init("vcachefuzz", flag.ContinueOnError)
	flag.CommandLine.Usage = func() {}
	seed := flag.Uint64("seed", 1, "campaign seed (same seed, same campaign)")
	budget := flag.Int("budget", 0, "generated programs to try (0 = default)")
	steps := flag.Int("steps", 0, "ops per generated program (0 = default)")
	configs := flag.String("configs", "", "comma-separated configuration labels (default A,B,F)")
	corpus := flag.String("corpus", "", "directory to write minimized witness exports into")
	selftest := flag.Bool("selftest", false, "require full Table 2 coverage and clean witness replays; exit non-zero otherwise")
	quiet := flag.Bool("quiet", false, "suppress per-finding progress lines")
	if err := flag.CommandLine.Parse(os.Args[1:]); err == flag.ErrHelp {
		flag.PrintDefaults()
		return
	} else if err != nil {
		os.Exit(2)
	}
	if *budget < 0 || *steps < 0 {
		log.Fatalf("-budget and -steps must be >= 0 (0 = default), got %d and %d", *budget, *steps)
	}
	// An unusable corpus directory fails before the campaign, not after.
	if *corpus != "" {
		if err := os.MkdirAll(*corpus, 0o755); err != nil {
			log.Fatal(err)
		}
	}

	opts := fuzz.Options{Seed: *seed, Budget: *budget, Steps: *steps}
	if *configs != "" {
		opts.Configs = strings.Split(*configs, ",")
	}
	if !*quiet {
		opts.Log = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	rep, err := fuzz.Run(context.Background(), opts)
	if err != nil {
		log.Fatal(err)
	}

	failed := false
	witnessed := 0
	for i, f := range rep.Findings {
		ex, err := fuzz.Witness(context.Background(), f.Program)
		if err != nil {
			log.Printf("witness %s: %v", f.Program.Origin.Workload, err)
			failed = true
			continue
		}
		if _, got, err := replay.Replay(context.Background(), ex); err != nil {
			log.Printf("replay of witness %s: %v", f.Program.Origin.Workload, err)
			failed = true
		} else if err := replay.CompareExports(ex, got); err != nil {
			log.Printf("witness %s: %v", f.Program.Origin.Workload, err)
			failed = true
		} else {
			witnessed++
		}
		if *corpus != "" {
			kind := "novel"
			if f.Violating {
				kind = "violation"
			}
			path := filepath.Join(*corpus, fmt.Sprintf("%03d-%s-%s.json", i, kind, f.Program.Origin.Workload))
			data, err := json.MarshalIndent(ex, "", " ")
			if err != nil {
				log.Fatal(err)
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				log.Fatal(err)
			}
		}
	}

	fmt.Printf("campaign: seed=%d tried=%d skipped=%d findings=%d witnesses=%d coverage=%d/%d\n",
		*seed, rep.Tried, rep.Skipped, len(rep.Findings), witnessed, rep.Coverage.Covered(), core.NumCells)
	violations := 0
	for _, f := range rep.Findings {
		if f.Violating {
			violations++
			fmt.Printf("ORACLE VIOLATION: %s (%d ops)\n", f.Program.Origin.Workload, len(f.Program.Ops))
		}
	}
	if miss := rep.Coverage.Missing(); len(miss) > 0 {
		parts := make([]string, len(miss))
		for i, c := range miss {
			parts[i] = c.String()
		}
		fmt.Printf("missing cells: %s\n", strings.Join(parts, ", "))
	}

	if violations > 0 {
		os.Exit(1)
	}
	if *selftest && (!rep.Coverage.Full() || failed) {
		log.Fatal("selftest failed: coverage incomplete or witnesses did not replay")
	}
}
