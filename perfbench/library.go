package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"marchgen"
	"marchgen/fault"
	"marchgen/internal/cover"
	"marchgen/internal/experiments"
	"marchgen/internal/sim"
	"marchgen/march"
)

// setupRuns is how many times a run sets up; setup_s is their median.
const setupRuns = 3

// faultmixWarmup is the number of lists the faultmix warm-up pass
// generates, from a walk of its own seed so set-up does the same work
// whatever the workload seed.
const (
	faultmixWarmup     = 24
	faultmixWarmupSeed = 0
)

// digestPrefix bounds the outputs folded into the faultmix digest, so two
// runs of one seed digest the same lists however fast each ran.
const digestPrefix = 200

// goldenPath is the Table 3 golden file, relative to the checkout root.
const goldenPath = "testdata/table3.golden"

// nCells is the memory size of the n-cell simulator used as a reference.
const nCells = 6

// genSample is one timed library generation.
type genSample struct {
	faults string
	ms     float64
	test   *march.Test
	cplx   int
	err    error
}

// libRun is one closed-loop measurement.
type libRun struct {
	samples []genSample
	elapsed time.Duration // loop wall time, replays excluded
	alloc   uint64        // bytes allocated by the generations
}

// libWorkload is a closed loop with one caller over a stream of fault
// lists.
type libWorkload struct {
	opts []marchgen.Option
	next func() string
	// batch is how many inputs run between deadline checks (table3 runs
	// whole passes, so every row is sampled equally).
	batch int
}

// minSamples is the fewest generations a run takes, so the percentile
// rule can report p90 (10 samples beyond it) even when the machine runs
// slow; a run ends at the first batch boundary past both d and minSamples.
const minSamples = 100

// measure runs the loop for d of generation time. With a tracer, each
// generation also records the program's own stage times and counters, and
// is followed by an untimed layer replay of the same input.
func (w *libWorkload) measure(ctx context.Context, d time.Duration, tr *tracer) (libRun, error) {
	var run libRun
	opts := w.opts
	if tr != nil {
		opts = append(opts[:len(opts):len(opts)], marchgen.WithMetrics())
	}
	var m0, m1 runtime.MemStats
	// paused and benchAlloc are the time and bytes the benchmark spends
	// inside the loop on its own work: drawing inputs and replays.
	var paused time.Duration
	var benchAlloc uint64
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for time.Since(start)-paused < d || len(run.samples) < minSamples {
		for k := 0; k < w.batch; k++ {
			// Drawing the input is the benchmark's work, not the program's.
			p0 := time.Now()
			var a0, a1 runtime.MemStats
			runtime.ReadMemStats(&a0)
			in := w.next()
			runtime.ReadMemStats(&a1)
			benchAlloc += a1.TotalAlloc - a0.TotalAlloc
			paused += time.Since(p0)
			t0 := time.Now()
			res, err := marchgen.GenerateCtx(ctx, in, opts...)
			s := genSample{faults: in, ms: msOf(time.Since(t0)), err: err}
			if err == nil {
				s.test, s.cplx = res.Test, res.Complexity
			}
			run.samples = append(run.samples, s)
			if tr == nil || err != nil {
				continue
			}
			p0 = time.Now()
			runtime.ReadMemStats(&a0)
			err = tr.observe(ctx, fmt.Sprintf("g%d", len(run.samples)), in, res)
			runtime.ReadMemStats(&a1)
			benchAlloc += a1.TotalAlloc - a0.TotalAlloc
			paused += time.Since(p0)
			if err != nil {
				return run, fmt.Errorf("replay of %s: %w", in, err)
			}
		}
	}
	run.elapsed = time.Since(start) - paused
	runtime.ReadMemStats(&m1)
	run.alloc = m1.TotalAlloc - m0.TotalAlloc - benchAlloc
	return run, nil
}

// libMetrics derives the end-to-end metrics and the tail latencies of a
// library run. A library call is the workload's request, and a closed loop
// offers exactly the calls it attempts, so the request metrics are the
// generation latencies and achieved_rps is the share of calls that
// succeeded. A closed loop has no high-rate phase: req_p99_high_ms is 0.
func libMetrics(run libRun, failed int, setup []float64, stratified bool) (e2e, tails []metric) {
	lat := make([]float64, len(run.samples))
	for i, s := range run.samples {
		lat[i] = s.ms
	}
	n := float64(len(lat))
	ok := ratio(n-float64(failed), n)
	p50 := latMetric("gen_p50_ms", lat, 50)
	if stratified {
		p50 = strataMedian(run.samples)
	}
	req50 := p50
	req50.Name = "req_p50_ms"
	e2e = []metric{
		setupMetric(setup),
		{"gen_per_s", "1/s", n / run.elapsed.Seconds(), fmt.Sprintf("n=%d", len(lat))},
		p50,
		{"alloc_mb_per_gen", "MB", float64(run.alloc) / 1e6 / n, fmt.Sprintf("n=%d", len(lat))},
		{"peak_rss_mb", "MB", peakRSSMB(), "benchmark process (engine in-process)"},
		{"ok_ratio", "ratio", ok, fmt.Sprintf("error_rate=%.4f of %d", 1-ok, len(lat))},
		req50,
		{"achieved_rps", "ratio", ok, "closed loop: successful/attempted calls"},
	}
	tails = []metric{
		latMetric("gen_p90_ms", lat, 90),
		latMetric("req_p99_ms", lat, 99),
		{"req_p99_high_ms", "ms", 0, "closed loop: no high-rate phase"},
	}
	return e2e, tails
}

// strataMedian is the median generation latency of a run made of whole
// passes over a few inputs (table3): the median of the per-input medians.
// The plain median of such a mix falls between two inputs' latencies and
// jumps between them from run to run; this estimate of the same point
// holds still.
func strataMedian(samples []genSample) metric {
	by := map[string][]float64{}
	for _, s := range samples {
		by[s.faults] = append(by[s.faults], s.ms)
	}
	var meds []float64
	for _, v := range by {
		meds = append(meds, median(v))
	}
	return metric{"gen_p50_ms", "ms", median(meds), fmt.Sprintf("median of %d inputs' medians, n=%d", len(meds), len(samples))}
}

func latMetric(name string, lat []float64, want float64) metric {
	t := percentile(lat, want)
	return metric{name, "ms", t.Value, fmt.Sprintf("p%g of n=%d", t.Pct, t.N)}
}

func setupMetric(setup []float64) metric {
	return metric{"setup_s", "s", median(setup), fmt.Sprintf("median of %d set-ups", len(setup))}
}

func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// timedSetups runs set-up setupRuns times and returns each duration in
// seconds.
func timedSetups(setup func() error) ([]float64, error) {
	var out []float64
	for i := 0; i < setupRuns; i++ {
		t0 := time.Now()
		if err := setup(); err != nil {
			return nil, err
		}
		out = append(out, time.Since(t0).Seconds())
	}
	return out, nil
}

// runTable3 is the paper's reference set: the six Table 3 fault lists in
// a closed loop with the memo cache off, checked byte for byte against
// the golden file.
func runTable3(seed int64, d time.Duration, traced bool) (*result, error) {
	ctx := context.Background()
	golden, err := readGolden(goldenPath)
	if err != nil {
		return nil, err
	}
	var rows []string
	for _, s := range experiments.Table3Spec() {
		rows = append(rows, s.Faults)
	}
	// The seed picks the row the loop starts at; the loop runs whole
	// passes, so every row is sampled equally often.
	pos := int(uint64(seed) % uint64(len(rows)))
	w := &libWorkload{
		opts:  []marchgen.Option{marchgen.WithoutCache()},
		batch: len(rows),
		next: func() string {
			in := rows[pos%len(rows)]
			pos++
			return in
		},
	}
	setup, err := timedSetups(func() error {
		for _, row := range rows {
			if _, err := marchgen.GenerateCtx(ctx, row, w.opts...); err != nil {
				return fmt.Errorf("warm-up %s: %w", row, err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	check := func(run libRun, res *result) int {
		failed := 0
		dg := newDigest()
		for i, s := range run.samples {
			line := ""
			if s.err == nil {
				line = fmt.Sprintf("%s | %dn | %s", s.faults, s.cplx, s.test)
			}
			if s.err != nil || line != golden[s.faults] {
				failed++
				res.note("WRONG %s: got %q (err %v), golden %q", s.faults, line, s.err, golden[s.faults])
			}
			if i < len(rows) {
				dg.add("%s", line)
			}
		}
		res.note("digest %s (first pass)", dg)
		byRow := map[string][]float64{}
		for _, s := range run.samples {
			byRow[s.faults] = append(byRow[s.faults], s.ms)
		}
		for _, row := range rows {
			res.note("row %-22s median %8.2f ms over %d", row, median(byRow[row]), len(byRow[row]))
		}
		return failed
	}
	return runLibrary(ctx, w, d, traced, setup, check, func(_ libRun, before, after marchgen.CacheInfo) error {
		if after.Hits != before.Hits || after.Misses != before.Misses {
			return fmt.Errorf("table3 touched the memo cache (hits %d→%d, misses %d→%d): the cache bypass is broken",
				before.Hits, after.Hits, before.Misses, after.Misses)
		}
		return nil
	})
}

// runFaultmix is the cold, many-key workload: distinct random-walk fault
// lists in a closed loop with default options, so the shared memo cache
// is on but no whole result is ever reused.
func runFaultmix(seed int64, d time.Duration, traced bool) (*result, error) {
	ctx := context.Background()
	warmWalk := newFaultWalk(faultmixWarmupSeed, faultmixMaxLen, faultmixMaxSelections)
	warm := make([]string, faultmixWarmup)
	for i := range warm {
		warm[i] = warmWalk.next()
	}
	setup, err := timedSetups(func() error {
		marchgen.ResetCache()
		for _, l := range warm {
			if _, err := marchgen.GenerateCtx(ctx, l); err != nil {
				return fmt.Errorf("warm-up %s: %w", l, err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// The warm-up lists may recur in the workload's walk: start the timed
	// loop from an empty cache so no result is ever reused.
	marchgen.ResetCache()
	w := &libWorkload{next: newFaultWalk(seed, faultmixMaxLen, faultmixMaxSelections).next, batch: 1}
	check := func(run libRun, res *result) int {
		failed := 0
		dg := newDigest()
		for i, s := range run.samples {
			if i < digestPrefix && s.err == nil {
				dg.add("%s | %dn | %s", s.faults, s.cplx, s.test)
			}
		}
		for _, msg := range checkGenerated(ctx, run.samples) {
			failed++
			res.note("WRONG %s", msg)
		}
		res.note("digest %s", dg)
		return failed
	}
	return runLibrary(ctx, w, d, traced, setup, check, func(run libRun, _, _ marchgen.CacheInfo) error {
		seen := map[string]bool{}
		for _, s := range run.samples {
			if seen[s.faults] {
				return fmt.Errorf("faultmix emitted %q twice: its memo keys are not distinct", s.faults)
			}
			seen[s.faults] = true
		}
		return nil
	})
}

// runLibrary measures a library workload, checks its outputs and, when
// traced, adds a traced phase and its per-layer metrics. selfCheck
// validates the run itself from the memo counters around the untraced
// phase; a failure means the measurement is invalid, not the program.
func runLibrary(ctx context.Context, w *libWorkload, d time.Duration, traced bool, setup []float64,
	check func(libRun, *result) int, selfCheck func(run libRun, before, after marchgen.CacheInfo) error) (*result, error) {
	res := &result{}
	phase := d
	if traced {
		phase = d / 2
	}
	before := marchgen.CacheSnapshot()
	run, err := w.measure(ctx, phase, nil)
	if err != nil {
		return nil, err
	}
	if err := selfCheck(run, before, marchgen.CacheSnapshot()); err != nil {
		return nil, err
	}
	failed := check(run, res)
	attempted := len(run.samples)
	res.EndToEnd, res.Tails = libMetrics(run, failed, setup, w.batch > 1)
	if traced {
		tr := newTracer()
		trun, err := w.measure(ctx, phase, tr)
		if err != nil {
			return nil, err
		}
		tfailed := check(trun, res)
		failed += tfailed
		attempted += len(trun.samples)
		var ttails []metric
		res.Traced, ttails = libMetrics(trun, tfailed, setup, w.batch > 1)
		res.Layers = append(tr.metrics(serveLayer{}, overheadPct(res.EndToEnd, res.Traced)), ttails...)
		for _, n := range tr.crossCheck() {
			res.note("%s", n)
		}
	}
	res.Attempted, res.Failed, res.Correct = attempted, failed, failed == 0
	return res, nil
}

// checkGenerated checks each generated test against references that do
// not come from the generator: completeness on the scalar reference
// engine and on the n-cell simulator, and no removable operation.
func checkGenerated(ctx context.Context, samples []genSample) []string {
	var mu sync.Mutex
	var wrong []string
	work := make(chan genSample)
	var wg sync.WaitGroup
	for k := 0; k < runtime.GOMAXPROCS(0); k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range work {
				if msg := checkOne(ctx, s); msg != "" {
					mu.Lock()
					wrong = append(wrong, msg)
					mu.Unlock()
				}
			}
		}()
	}
	for _, s := range samples {
		work <- s
	}
	close(work)
	wg.Wait()
	return wrong
}

func checkOne(ctx context.Context, s genSample) string {
	if s.err != nil {
		return fmt.Sprintf("%s: %v", s.faults, s.err)
	}
	models, err := fault.ParseList(s.faults)
	if err != nil {
		return fmt.Sprintf("%s: %v", s.faults, err)
	}
	instances := fault.Instances(models)
	cov, err := sim.EvaluateEngine(ctx, s.test, instances, 1, sim.Scalar)
	if err != nil || !cov.Complete() {
		return fmt.Sprintf("%s: %s incomplete on the scalar engine (err %v)", s.faults, s.test, err)
	}
	rep, err := marchgen.VerifyN(s.test, s.faults, nCells)
	if err != nil || !rep.Complete {
		return fmt.Sprintf("%s: %s incomplete on the %d-cell simulator (err %v)", s.faults, s.test, nCells, err)
	}
	removable, err := cover.RemovableOps(s.test, instances)
	if err != nil || len(removable) > 0 {
		return fmt.Sprintf("%s: %s has removable ops %v (err %v)", s.faults, s.test, removable, err)
	}
	return ""
}

// readGolden maps each fault list of the golden file to its line.
func readGolden(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("golden file: %w", err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		faults, _, _ := strings.Cut(line, " | ")
		out[faults] = line
	}
	return out, sc.Err()
}
