// Command marchgen generates an optimal March test for a memory fault
// list:
//
//	marchgen -faults SAF,TF,ADF,CFin,CFid
//	marchgen -faults "CFid<u,0>,CFid<u,1>" -stats -ascii
//	marchgen -faults SAF,TF -timeout 5s -budget nodes=100000,soft=2s
//	marchgen -faults SAF,TF -trace trace.jsonl -metrics
//
// The generated test is validated for complete fault coverage and
// non-redundancy before being printed.
//
// Observability: -trace writes a JSONL span trace of the pipeline,
// -chrome-trace a Chrome trace_event file, -metrics dumps the metric
// snapshot as JSON to stderr on exit, -pprof serves net/http/pprof
// plus expvar and /metrics on the given address and -progress logs
// live engine progress lines (stage, selection fraction, incumbent
// tour cost vs lower bound, node throughput, ETA) to stderr. All are
// off by default and cost nothing when off.
//
// Exit codes: 0 success (optimal result), 1 failure, 2 usage error,
// 3 canceled or -timeout exceeded, 4 a soft budget ran out and the
// printed result is validated best-effort rather than proven optimal.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"marchgen"
	"marchgen/fault"
	"marchgen/internal/budget"
	"marchgen/internal/obs"
)

func main() { os.Exit(run()) }

func run() int {
	faults := flag.String("faults", "SAF", "comma-separated fault list (see -list)")
	list := flag.Bool("list", false, "print the built-in fault models and exit")
	stats := flag.Bool("stats", false, "print pipeline statistics")
	ascii := flag.Bool("ascii", false, "print the test in 7-bit notation")
	heuristic := flag.Bool("heuristic", false, "use the heuristic ATSP solver (faster, possibly suboptimal)")
	verify := flag.Bool("verify", true, "print the coverage/non-redundancy verdict")
	timeout := flag.Duration("timeout", 0, "hard deadline; past it the run aborts (0: none)")
	budgetSpec := flag.String("budget", "", "soft resource budget, e.g. nodes=100000,selections=16,candidates=200,soft=2s (exhaustion degrades instead of failing)")
	workers := flag.Int("workers", 0, "worker pool size for the selection sweep and simulation (0: GOMAXPROCS); the result is identical at any count")
	obsFlags := obs.BindFlags(flag.CommandLine)
	flag.Parse()

	if *list {
		for _, name := range fault.ModelNames() {
			m, err := fault.Parse(name)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return budget.ExitFail
			}
			fmt.Printf("%-6s %2d instances  %s\n", name, len(m.Instances), m.Description)
		}
		return budget.ExitOK
	}

	orun, finish, err := obsFlags.Start(os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "marchgen:", err)
		return budget.ExitUsage
	}
	defer finish()

	ctx := obs.Into(context.Background(), orun)
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	w, err := budget.ParseWorkers(*workers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "marchgen:", err)
		return budget.ExitCode(err)
	}
	opts := []marchgen.Option{marchgen.WithWorkers(w)}
	if *heuristic {
		opts = append(opts, marchgen.WithHeuristicATSP())
	}
	if *budgetSpec != "" {
		b, err := marchgen.ParseBudget(*budgetSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "marchgen:", err)
			return budget.ExitUsage
		}
		opts = append(opts, marchgen.WithBudget(b))
	}

	res, err := marchgen.GenerateCtx(ctx, *faults, opts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "marchgen:", err)
		return budget.ExitCode(err)
	}
	if *ascii {
		fmt.Printf("%s   (%dn)\n", res.Test.ASCII(), res.Complexity)
	} else {
		fmt.Printf("%s   (%dn)\n", res.Test, res.Complexity)
	}
	if *stats {
		if res.Stats.FromCache {
			fmt.Println("served from the memo cache (identical to a fresh run)")
		}
		fmt.Printf("fault instances: %d\n", len(res.Instances))
		fmt.Printf("BFE classes:     %d (selections enumerated: %d)\n", res.Stats.Classes, res.Stats.Selections)
		fmt.Printf("TPG nodes:       %d (optimal visit cost %d)\n", res.Stats.TPGNodes, res.Stats.PathCost)
		fmt.Printf("candidates:      %d\n", res.Stats.Candidates)
		fmt.Printf("elapsed:         %s\n", res.Stats.Elapsed)
		for _, st := range []string{"expand", "select", "atsp", "assemble", "validate", "shrink", "fallback", "finalize"} {
			if d, ok := res.Stats.StageElapsed[st]; ok {
				fmt.Printf("  stage %-9s %s\n", st+":", d)
			}
		}
	}
	if res.Stats.Degraded {
		fmt.Fprintf(os.Stderr, "marchgen: budget ran out in stage(s) %s — result is validated complete but not proven minimal\n",
			strings.Join(res.Stats.DegradedStages, ", "))
	}
	if *verify {
		rep, err := marchgen.VerifyWorkersCtx(ctx, res.Test, *faults, w)
		if err != nil {
			fmt.Fprintln(os.Stderr, "marchgen: verify:", err)
			return budget.ExitCode(err)
		}
		fmt.Printf("coverage: complete=%v non-redundant=%v (%d instances)\n",
			rep.Complete, rep.NonRedundant, len(rep.Instances))
		if !rep.Complete {
			fmt.Printf("missed: %s\n", strings.Join(rep.Missed, ", "))
			return budget.ExitFail
		}
	}
	if res.Stats.Degraded {
		return budget.ExitDegraded
	}
	return budget.ExitOK
}
