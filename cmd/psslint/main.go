// Command psslint is ParallelSpikeSim's multichecker: it runs the custom
// analyzers from internal/lint over the given package patterns and exits
// non-zero on any finding, so CI can gate merges on the simulator's
// machine-checkable invariants.
//
// Usage:
//
//	go run ./cmd/psslint ./...                 # full analyzer suite
//	go run ./cmd/psslint -fixedrange ./...     # one analyzer
//	go run ./cmd/psslint -rcuimmut -golifecycle -hotalloc ./...
//	go run ./cmd/psslint -escape ./...         # compiler escape-analysis gate
//	go run ./cmd/psslint -escape -baseline scripts/allocs-baseline.txt ./...
//
// Selecting one or more analyzer flags runs only those; with no analyzer
// flags the full suite runs. -escape is a separate mode: instead of the AST
// analyzers it recompiles the //psslint:noalloc packages with -gcflags=-m
// and fails on any heap escape inside an annotated function; -baseline
// additionally verifies that every function listed in the committed
// baseline is still annotated (the ratchet cannot be loosened silently).
// Exit codes: 0 clean, 1 findings, 2 usage or load failure.
package main

import (
	"flag"
	"fmt"
	"os"

	"parallelspikesim/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("psslint", flag.ContinueOnError)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: psslint [-fixedrange] [-detrand] [-ioerr] [-rcuimmut] [-golifecycle] [-hotalloc] packages...")
		fmt.Fprintln(fs.Output(), "       psslint -escape [-baseline file] packages...")
		fs.PrintDefaults()
	}
	selected := make(map[string]*bool)
	for _, a := range lint.Analyzers() {
		selected[a.Name] = fs.Bool(a.Name, false, "run only selected analyzers: "+a.Doc)
	}
	escape := fs.Bool("escape", false, "run the compiler escape-analysis gate over //psslint:noalloc functions instead of the AST analyzers")
	baseline := fs.String("baseline", "", "with -escape: verify every function in this baseline file is still annotated //psslint:noalloc")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		fs.Usage()
		return 2
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "psslint:", err)
		return 2
	}

	if *escape {
		return runEscape(cwd, *baseline, patterns)
	}

	analyzers := lint.Analyzers()
	var chosen []*lint.Analyzer
	for _, a := range analyzers {
		if *selected[a.Name] {
			chosen = append(chosen, a)
		}
	}
	if len(chosen) == 0 {
		chosen = analyzers
	}

	pkgs, err := lint.Load(cwd, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "psslint:", err)
		return 2
	}
	diags, err := lint.Run(pkgs, chosen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "psslint:", err)
		return 2
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "psslint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// runEscape drives the -escape mode: compiler escape analysis over the
// annotated functions, plus the optional baseline ratchet.
func runEscape(cwd, baseline string, patterns []string) int {
	diags, funcs, err := lint.EscapeCheck(cwd, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "psslint:", err)
		return 2
	}
	findings := 0
	for _, d := range diags {
		fmt.Println(d)
		findings++
	}
	if baseline != "" {
		missing, err := lint.CheckNoAllocBaseline(baseline, cwd, funcs)
		if err != nil {
			fmt.Fprintln(os.Stderr, "psslint:", err)
			return 2
		}
		for _, m := range missing {
			fmt.Printf("%s: baseline function no longer annotated //psslint:noalloc (escape)\n", m)
			findings++
		}
	}
	fmt.Fprintf(os.Stderr, "psslint -escape: %d annotated function(s) checked\n", len(funcs))
	if findings > 0 {
		fmt.Fprintf(os.Stderr, "psslint: %d finding(s)\n", findings)
		return 1
	}
	return 0
}
