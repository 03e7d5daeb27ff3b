// Command qclint runs the repo's architectural-invariant analyzers
// over the root module — the type-aware replacement for the grep gates
// that used to live in ci.yml. Usage:
//
//	go -C lint run ./cmd/qclint -C .. ./...
//
// It loads every package matching the patterns (test files included),
// runs the suite from analyzers/registry, prints findings as
// file:line:col: message (analyzer), and exits 1 if any survive
// //qclint:allow suppression. -list prints the suite and each
// analyzer's contract.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"qcsim/lint/analyzers/registry"
	"qcsim/lint/internal/analysis"
	"qcsim/lint/internal/load"
)

func main() {
	chdir := flag.String("C", "", "run as if started in this directory (the module to lint)")
	list := flag.Bool("list", false, "print the analyzer suite and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: qclint [-C dir] [-list] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	suite := registry.All()
	if *list {
		for _, a := range suite {
			fmt.Printf("%s: %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	dir := *chdir
	if dir == "" {
		dir = "."
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		fatalf("resolving -C %q: %v", dir, err)
	}

	pkgs, err := load.LoadModule(abs, patterns)
	if err != nil {
		fatalf("%v", err)
	}

	targets := make([]*analysis.Target, len(pkgs))
	for i, pkg := range pkgs {
		targets[i] = pkg.Target()
		targets[i].Module = targets
	}
	bad := 0
	for _, target := range targets {
		for _, a := range suite {
			findings, err := analysis.Run(a, target)
			if err != nil {
				fatalf("%s on %s: %v", a.Name, target.PkgPath, err)
			}
			for _, f := range findings {
				bad++
				fmt.Printf("%s: %s (%s)\n", shorten(abs, f.Pos.String()), f.Message, f.Analyzer)
			}
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "qclint: %d finding(s)\n", bad)
		os.Exit(1)
	}
}

// shorten rewrites an absolute finding position relative to the linted
// module root, keeping CI logs readable.
func shorten(root, pos string) string {
	if rel, err := filepath.Rel(root, pos); err == nil && !filepath.IsAbs(rel) && rel != "" && rel[0] != '.' {
		return rel
	}
	return pos
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "qclint: "+format+"\n", args...)
	os.Exit(1)
}
