// Command transitions prints the paper's Table 2 (cache line state
// transitions) and Table 3 (state vs. data-structure encoding) from the
// executable consistency model, plus the Section 3.3 variant tables.
//
// Usage:
//
//	transitions [-table 2|3] [-variants]
package main

import (
	"flag"
	"fmt"
	"os"

	"vcache/internal/core"
	"vcache/internal/report"
)

func main() {
	// A bad flag is one line on stderr, not the flag list; -h prints it.
	flag.CommandLine.Init("transitions", flag.ContinueOnError)
	flag.CommandLine.Usage = func() {}
	table := flag.Int("table", 0, "print only this table (2 or 3); default both")
	variants := flag.Bool("variants", false, "also print the Section 3.3 architecture variants")
	if err := flag.CommandLine.Parse(os.Args[1:]); err == flag.ErrHelp {
		flag.PrintDefaults()
		return
	} else if err != nil {
		os.Exit(2)
	}

	switch *table {
	case 0:
		fmt.Print(report.Table2())
		fmt.Println()
		fmt.Print(report.Table3())
	case 2:
		fmt.Print(report.Table2())
	case 3:
		fmt.Print(report.Table3())
	default:
		fmt.Fprintf(os.Stderr, "transitions: no table %d (want 2 or 3)\n", *table)
		os.Exit(2)
	}

	if *variants {
		fmt.Println()
		printVariants()
	}
}

func printVariants() {
	for _, v := range core.Variants {
		if v == core.WriteBackVI {
			continue // the base model is Table 2 itself
		}
		fmt.Printf("Variant: %s\n", v)
		for _, op := range core.MemoryOperations {
			for i, s := range core.States {
				name := ""
				if i == 0 {
					name = op.String()
				}
				t := core.VariantTarget(v, op, s)
				line := fmt.Sprintf("%-12s  %s → %s", name, s, t)
				if core.VariantHasOtherColumn(v) {
					o := core.VariantOther(v, op, s)
					line += fmt.Sprintf("    (unaligned: %s → %s)", s, o)
				}
				fmt.Println(line)
			}
		}
		fmt.Println()
	}
}
