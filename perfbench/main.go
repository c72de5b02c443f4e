// Command perfbench is the repository benchmark: one command that runs a
// workload against the public library API or a spawned marchserve,
// checks every output, and prints each metric by name with its unit.
//
//	bash perfbench/run.sh --workload table3 --seed 1 --seconds 24 --trace 0
//
// run.sh builds this program and marchserve from the checkout it runs in.
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. See README.md for why
// each workload exists and which layer metric should move which
// end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// metric is one named measurement. Note says how it was taken, e.g. which
// percentile the reporting rule allowed and over how many samples.
type metric struct {
	Name  string
	Unit  string
	Value float64
	Note  string
}

// result is what one run reports.
type result struct {
	Correct   bool
	Attempted int
	Failed    int
	EndToEnd  []metric
	// Tails are the tail latencies. They are printed on every run and
	// reported with the per-layer metrics, but carry no regression
	// bound: the serve-mix tails moved by half their median between runs
	// of one build on a shared 2-core VM.
	Tails  []metric
	Layers []metric // traced runs only
	// Traced holds the end-to-end metrics measured with tracing on,
	// printed beside EndToEnd to show the tracing overhead.
	Traced []metric
	Notes  []string
}

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func main() {
	workload := flag.String("workload", "", "workload: table3, faultmix or serve-mix")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 24, "measured seconds per run")
	trace := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	serverBin := flag.String("server-bin", "", "marchserve binary (serve-mix only)")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	d := time.Duration(*seconds) * time.Second
	traced := *trace == 1
	var res *result
	var err error
	switch *workload {
	case "table3":
		res, err = runTable3(*seed, d, traced)
	case "faultmix":
		res, err = runFaultmix(*seed, d, traced)
	case "serve-mix":
		res, err = runServeMix(*seed, d, traced, *serverBin)
	default:
		err = fmt.Errorf("unknown workload %q (want table3, faultmix or serve-mix)", *workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := report(os.Stdout, *workload, *seed, res, traced); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: result line:", err)
		os.Exit(1)
	}
}

// report prints the human-readable summary, then the result line.
func report(w io.Writer, workload string, seed int64, res *result, traced bool) error {
	fmt.Fprintf(w, "workload %s seed %d: attempted %d, failed %d, correct %v\n",
		workload, seed, res.Attempted, res.Failed, res.Correct)
	for _, n := range res.Notes {
		fmt.Fprintln(w, "  "+n)
	}
	fmt.Fprintln(w, "end-to-end metrics:")
	for i, m := range res.EndToEnd {
		line := fmt.Sprintf("  %-18s %12.4f %-6s %s", m.Name, m.Value, m.Unit, m.Note)
		if traced && i < len(res.Traced) {
			t := res.Traced[i]
			line += fmt.Sprintf("  | traced %12.4f %s", t.Value, t.Note)
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintln(w, "tail latencies (no bound; with the per-layer metrics):")
	for _, m := range res.Tails {
		fmt.Fprintf(w, "  %-18s %12.4f %-6s %s\n", m.Name, m.Value, m.Unit, m.Note)
	}
	out := res.EndToEnd
	if traced {
		fmt.Fprintln(w, "per-layer metrics:")
		for _, m := range res.Layers {
			fmt.Fprintf(w, "  %-30s %12.4f %-9s %s\n", m.Name, m.Value, m.Unit, m.Note)
		}
		out = res.Layers
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range out {
		metrics[m.Name] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(line))
	return nil
}
