// Command gnnlint runs the project's invariant analyzers (internal/lint)
// over the module.
//
//	go run ./cmd/gnnlint ./...
//
// exits 0 when the tree is clean, 1 when any finding or type error is
// reported. Packages that fail to type-check are reported with file:line
// and skipped — the remaining packages are still analyzed, so one broken
// package does not hide findings elsewhere.
//
// Flags:
//
//	-sarif FILE  also write findings as SARIF 2.1.0 to FILE ("-" for
//	             stdout) for code-scanning upload
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"gnndrive/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("gnnlint", flag.ContinueOnError)
	fs.SetOutput(errw)
	sarifPath := fs.String("sarif", "", "write SARIF 2.1.0 results to this file (\"-\" for stdout)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(errw, "gnnlint:", err)
		return 2
	}
	loader, err := lint.NewLoader(cwd)
	if err != nil {
		fmt.Fprintln(errw, "gnnlint:", err)
		return 2
	}
	dirs, err := loader.Expand(cwd, patterns)
	if err != nil {
		fmt.Fprintln(errw, "gnnlint:", err)
		return 2
	}

	analyzers := lint.All()
	var findings []lint.Finding
	typeErrors := 0
	for _, dir := range dirs {
		pkgs, err := loader.Load(dir, true)
		if err != nil {
			// A directory the walk surfaced but that holds nothing
			// analyzable (parse failure is still fatal for that dir).
			fmt.Fprintf(errw, "gnnlint: %s: %v\n", dir, err)
			typeErrors++
			continue
		}
		for _, pkg := range pkgs {
			if len(pkg.TypeErrors) > 0 {
				for _, te := range pkg.TypeErrors {
					fmt.Fprintf(out, "%s: [typecheck] %s\n", te.Fset.Position(te.Pos), te.Msg)
					typeErrors++
				}
				fmt.Fprintf(out, "gnnlint: %s failed to type-check; analyzers skipped for this package\n", pkg.Path)
				continue
			}
			findings = append(findings, lint.RunPackage(pkg, analyzers)...)
		}
	}

	for _, f := range findings {
		fmt.Fprintln(out, f)
	}
	if *sarifPath != "" {
		w := out
		if *sarifPath != "-" {
			file, err := os.Create(*sarifPath)
			if err != nil {
				fmt.Fprintln(errw, "gnnlint: sarif:", err)
				return 2
			}
			defer file.Close()
			w = file
		}
		if err := writeSARIF(w, loader.Root, analyzers, findings); err != nil {
			fmt.Fprintln(errw, "gnnlint: sarif:", err)
			return 2
		}
	}
	if len(findings) > 0 || typeErrors > 0 {
		fmt.Fprintf(out, "gnnlint: %d finding(s), %d type error(s)\n", len(findings), typeErrors)
		return 1
	}
	fmt.Fprintf(out, "gnnlint: clean (%d package dir(s))\n", len(dirs))
	return 0
}
