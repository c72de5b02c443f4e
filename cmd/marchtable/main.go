// Command marchtable regenerates every table and figure of the paper's
// evaluation and, with -write, refreshes EXPERIMENTS.md:
//
//	marchtable                # print Table 3, Figure 4 and the comparisons
//	marchtable -write         # regenerate EXPERIMENTS.md above its marker line
//	marchtable -write -deep   # include the ~20 s optimality certifications
//	marchtable -trace report.jsonl -pprof localhost:6060
//
// With -write, the file's text from experiments.HandWrittenMarker on (the
// hand-written measurement records) is kept as it is; a file without the
// marker is left untouched and the command fails.
//
// Observability: -trace/-chrome-trace/-metrics/-pprof observe the whole
// report regeneration (every table row's generation pipeline is spanned);
// see cmd/marchgen for the flag semantics.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"

	"marchgen/internal/experiments"
	"marchgen/internal/obs"
)

func main() { os.Exit(run()) }

func run() int {
	write := flag.Bool("write", false, "regenerate EXPERIMENTS.md above its hand-written marker line instead of printing to stdout")
	out := flag.String("o", "EXPERIMENTS.md", "output path used with -write")
	deep := flag.Bool("deep", false, "include the heavyweight branch-and-bound certifications")
	obsFlags := obs.BindFlags(flag.CommandLine)
	flag.Parse()

	orun, finish, err := obsFlags.Start(os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "marchtable:", err)
		return 2
	}
	defer finish()

	ctx := obs.Into(context.Background(), orun)
	body, err := experiments.ReportCtx(ctx, *deep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "marchtable:", err)
		return 1
	}
	if !*write {
		fmt.Print(body)
		return 0
	}
	old, err := os.ReadFile(*out)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		fmt.Fprintln(os.Stderr, "marchtable:", err)
		return 1
	}
	text, err := experiments.SpliceReport(body, string(old))
	if err != nil {
		fmt.Fprintf(os.Stderr, "marchtable: %s: %v\n", *out, err)
		return 1
	}
	if err := os.WriteFile(*out, []byte(text), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "marchtable:", err)
		return 1
	}
	fmt.Println("wrote", *out)
	return 0
}
