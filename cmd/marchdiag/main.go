// Command marchdiag builds fault dictionaries and diagnoses observed
// failure syndromes:
//
//	marchdiag -known MarchC- -faults SAF,TF,CFid             # print the dictionary
//	marchdiag -known MarchC- -faults SAF,TF -syndrome 3,6    # who failed ops 3 and 6?
//	marchdiag -known MarchC- -faults CFid -classes           # ambiguity classes
//	marchdiag -known MarchC- -faults CFst -timeout 10s -budget soft=2s
//
// Exit codes: 0 success, 1 failure, 2 usage error, 3 canceled or
// -timeout exceeded, 4 the soft budget ran out and the printed
// dictionary is truncated (instances not yet simulated are omitted).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"marchgen"
	"marchgen/diag"
	"marchgen/fault"
	"marchgen/internal/budget"
	"marchgen/internal/obs"
	"marchgen/march"
)

func main() { os.Exit(run()) }

func run() int {
	knownName := flag.String("known", "MarchC-", "classic March test to build the dictionary for")
	testStr := flag.String("test", "", "March test in conventional notation (overrides -known)")
	faults := flag.String("faults", "SAF,TF", "comma-separated fault list")
	syndrome := flag.String("syndrome", "", "observed failing operation indices, e.g. 3,6 (empty: print the dictionary)")
	classes := flag.Bool("classes", false, "print the ambiguity classes")
	timeout := flag.Duration("timeout", 0, "hard deadline; past it the run aborts (0: none)")
	budgetSpec := flag.String("budget", "", "soft budget, e.g. soft=2s: past the soft deadline the dictionary is truncated instead of aborted")
	obsFlags := obs.BindFlags(flag.CommandLine)
	flag.Parse()

	orun, finish, err := obsFlags.Start(os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "marchdiag:", err)
		return budget.ExitUsage
	}
	defer finish()

	ctx := obs.Into(context.Background(), orun)
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	var soft time.Time
	if *budgetSpec != "" {
		b, err := marchgen.ParseBudget(*budgetSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "marchdiag:", err)
			return budget.ExitCode(err)
		}
		soft = b.Deadline
	}

	var test *march.Test
	if *testStr != "" {
		var err error
		test, err = march.Parse(*testStr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "marchdiag:", err)
			return budget.ExitFail
		}
	} else {
		kt, ok := march.Known(*knownName)
		if !ok {
			fmt.Fprintf(os.Stderr, "marchdiag: unknown test %q (known: %s)\n",
				*knownName, strings.Join(march.KnownNames(), ", "))
			return budget.ExitFail
		}
		test = kt.Test
	}
	models, err := fault.ParseList(*faults)
	if err != nil {
		fmt.Fprintln(os.Stderr, "marchdiag:", err)
		return budget.ExitCode(err)
	}
	dict, truncated, err := diag.BuildCtx(ctx, test, models, soft)
	if err != nil {
		fmt.Fprintln(os.Stderr, "marchdiag:", err)
		return budget.ExitCode(err)
	}
	if truncated {
		fmt.Fprintln(os.Stderr, "marchdiag: soft budget spent — dictionary is truncated; omitted instances cannot be ruled out")
	}

	switch {
	case *syndrome != "":
		var s diag.Syndrome
		for _, part := range strings.Split(*syndrome, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				fmt.Fprintf(os.Stderr, "marchdiag: bad syndrome entry %q\n", part)
				return budget.ExitUsage
			}
			s = append(s, v)
		}
		cands := dict.Diagnose(s)
		if len(cands) == 0 {
			fmt.Println("no modelled fault is consistent with this syndrome")
			if truncated {
				return budget.ExitDegraded
			}
			return budget.ExitFail
		}
		fmt.Printf("syndrome {%s} is consistent with: %s\n", s.Key(), strings.Join(cands, ", "))
	case *classes:
		fmt.Printf("ambiguity classes of %s over %s:\n", test, *faults)
		for _, class := range dict.AmbiguityClasses() {
			fmt.Printf("  %v\n", class)
		}
	default:
		fmt.Print(dict)
	}
	if truncated {
		return budget.ExitDegraded
	}
	return budget.ExitOK
}
