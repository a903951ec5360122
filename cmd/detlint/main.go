// Command detlint runs the framework-tier determinism linter
// (internal/detlint, passes DL001–DL006) over this repository's Go
// packages. It is the static half of the determinism contract: the
// runtime tests prove bit-identical replays after the fact, detlint
// rejects the code patterns that break them before anything runs.
//
// Usage:
//
//	detlint [-json] [packages...]
//
// Package patterns default to ./... resolved against the current
// directory. Exit status: 0 clean, 1 diagnostics reported, 2 load
// failure.
//
// Unlike most Go linters this driver is built on the standard library
// alone (go/types + `go list -export`), not golang.org/x/tools, so it
// works in hermetic builds with no module downloads; the trade-off is
// that it cannot be loaded via `go vet -vettool`.
package main

import (
	"flag"
	"fmt"
	"os"

	"activego/internal/detlint"
	"activego/internal/metrics"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit diagnostics as a JSON array instead of text")
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cfg := detlint.DefaultConfig()
	// The catalogue predicate is injected here rather than imported by
	// internal/detlint, so the linter has no dependency edge back into
	// the framework it lints.
	cfg.CataloguedName = metrics.Catalogued

	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "detlint:", err)
		os.Exit(2)
	}
	pkgs, err := detlint.Load(wd, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	diags := detlint.Run(cfg, pkgs)
	if *jsonOut {
		if err := detlint.WriteJSON(os.Stdout, diags); err != nil {
			fmt.Fprintln(os.Stderr, "detlint:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d.Format())
		}
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}
