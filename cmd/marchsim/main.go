// Command marchsim runs the memory fault simulator: it verifies a March
// test — given inline or by its classic name — against a fault list and
// prints the per-instance coverage and the Section 6 non-redundancy
// analysis.
//
//	marchsim -known MarchC- -faults SAF,TF,ADF,CFin,CFid
//	marchsim -test '{ any(w0); up(r0,w1); down(r1,w0) }' -faults SAF,TF
//	marchsim -known MATS+ -faults SAF -cells 16    # n-cell engine
//	marchsim -known MarchC- -faults SAF -cells 64 -timeout 10s -budget soft=2s
//
// Exit codes: 0 success (test complete), 1 failure or incomplete
// coverage, 2 usage error, 3 canceled or -timeout exceeded, 4 the soft
// budget ran out and the optional n-cell re-validation was skipped.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"marchgen"
	"marchgen/internal/budget"
	"marchgen/internal/obs"
	"marchgen/march"
)

func main() { os.Exit(run()) }

func run() int {
	testStr := flag.String("test", "", "March test in conventional notation")
	knownName := flag.String("known", "", "name of a classic March test (see -list)")
	list := flag.Bool("list", false, "print the classic March test library and exit")
	faults := flag.String("faults", "SAF", "comma-separated fault list")
	cells := flag.Int("cells", 0, "also re-validate with the n-cell memory simulator")
	perInstance := flag.Bool("per-instance", false, "print one line per fault instance")
	timeout := flag.Duration("timeout", 0, "hard deadline; past it the run aborts (0: none)")
	budgetSpec := flag.String("budget", "", "soft budget, e.g. soft=2s: past the soft deadline the optional n-cell re-validation is skipped")
	obsFlags := obs.BindFlags(flag.CommandLine)
	flag.Parse()

	if *list {
		for _, name := range march.KnownNames() {
			kt, _ := march.Known(name)
			fmt.Printf("%-8s %2dn  %-52s %s\n", name, kt.Complexity, kt.Test, kt.Source)
		}
		return budget.ExitOK
	}

	orun, finish, err := obsFlags.Start(os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "marchsim:", err)
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
			fmt.Fprintln(os.Stderr, "marchsim:", err)
			return budget.ExitCode(err)
		}
		soft = b.Deadline
	}

	var test *march.Test
	switch {
	case *knownName != "":
		kt, ok := march.Known(*knownName)
		if !ok {
			fmt.Fprintf(os.Stderr, "marchsim: unknown test %q (known: %s)\n",
				*knownName, strings.Join(march.KnownNames(), ", "))
			return budget.ExitFail
		}
		test = kt.Test
	case *testStr != "":
		var err error
		test, err = march.Parse(*testStr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "marchsim:", err)
			return budget.ExitFail
		}
	default:
		fmt.Fprintln(os.Stderr, "marchsim: pass -test or -known (or -list)")
		return budget.ExitUsage
	}

	rep, err := marchgen.VerifyCtx(ctx, test, *faults)
	if err != nil {
		fmt.Fprintln(os.Stderr, "marchsim:", err)
		return budget.ExitCode(err)
	}
	fmt.Printf("test:      %s   (%dn)\n", rep.Test, rep.Complexity)
	fmt.Printf("faults:    %s (%d instances)\n", *faults, len(rep.Instances))
	fmt.Printf("complete:  %v\n", rep.Complete)
	if rep.Complete {
		fmt.Printf("redundant: %v", !rep.NonRedundant)
		if len(rep.RemovableOps) > 0 {
			fmt.Printf(" (removable ops %v)", rep.RemovableOps)
		}
		if len(rep.RedundantReads) > 0 {
			fmt.Printf(" (redundant reads %v)", rep.RedundantReads)
		}
		fmt.Println()
	} else {
		fmt.Printf("missed:    %s\n", strings.Join(rep.Missed, ", "))
	}
	if *perInstance {
		for _, inst := range rep.Instances {
			verdict := "DETECTED"
			if !inst.Detected {
				verdict = "MISSED"
			}
			fmt.Printf("  %-28s %-8s detecting reads (op indices): %v\n", inst.Name, verdict, inst.DetectingOps)
		}
	}
	degraded := false
	if *cells > 0 {
		if !soft.IsZero() && time.Now().After(soft) {
			fmt.Fprintf(os.Stderr, "marchsim: soft budget spent — skipping the %d-cell re-validation\n", *cells)
			degraded = true
		} else {
			nrep, err := marchgen.VerifyNCtx(ctx, test, *faults, *cells)
			if err != nil {
				fmt.Fprintln(os.Stderr, "marchsim:", err)
				return budget.ExitCode(err)
			}
			fmt.Printf("n-cell engine (%d cells): complete=%v\n", *cells, nrep.Complete)
			if nrep.Complete != rep.Complete {
				fmt.Fprintln(os.Stderr, "marchsim: engines disagree — please report a bug")
				return budget.ExitFail
			}
		}
	}
	if !rep.Complete {
		return budget.ExitFail
	}
	if degraded {
		return budget.ExitDegraded
	}
	return budget.ExitOK
}
