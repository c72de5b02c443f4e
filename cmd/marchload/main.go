// Command marchload is a closed-loop load generator for marchserve: -c
// concurrent workers each keep exactly one /v1/generate request in
// flight until -n total requests have completed, then the run's
// throughput and latency percentiles are printed and appended as one
// trajectory entry to -o (BENCH_serve.json by convention).
//
//	marchload -addr localhost:8080 -n 200 -c 8
//	marchload -addr localhost:8080 -n 500 -c 16 -faults 'SAF,TF;SAF,TF,ADF;CFin' -o BENCH_serve.json
//
// Workers rotate through the ';'-separated fault lists, so a mixed
// workload exercises the server's coalescer (identical in-flight
// requests), admission control and memo cache (repeated lists) at
// once. Closed-loop means measured latency is honest under overload: a
// saturated server slows the loop down instead of building an unbounded
// client-side backlog. A 503 shed is retried up to -retries times,
// honoring the server's Retry-After hint with capped exponential backoff
// and jitter; the report counts the retries.
//
// -chaos switches marchload into a crash-recovery harness instead: it
// starts its own marchserve subprocess with a durable job store, submits
// a randomized job mix to /v1/jobs, repeatedly kill -9s and restarts the
// server mid-run, and asserts that every job reaches a terminal state
// with a result byte-identical to an uninterrupted local computation (or
// a typed terminal error) — never a hang, never a vanished job.
//
//	marchload -chaos -server-bin ./marchserve -jobs 6 -kills 2
//
// Exit codes: 0 all requests succeeded (2xx), 1 some requests failed,
// 2 usage error.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"marchgen/internal/budget"
	"marchgen/internal/obs"
)

// result is one completed request's measurement.
type result struct {
	latency   time.Duration
	status    int
	coalesced bool
	fromCache bool
	shed      bool
	retries   int
}

// Report is the JSON trajectory entry marchload appends to -o: one
// closed-loop run's configuration, throughput and latency distribution.
type Report struct {
	Timestamp   string   `json:"timestamp"`
	Addr        string   `json:"addr"`
	Requests    int      `json:"requests"`
	Concurrency int      `json:"concurrency"`
	FaultLists  []string `json:"fault_lists"`
	// OK/Shed/Errors partition the completed requests: 2xx, 503-shed, and
	// everything else.
	OK     int `json:"ok"`
	Shed   int `json:"shed"`
	Errors int `json:"errors"`
	// Coalesced and FromCache count responses that reported sharing an
	// in-flight run or a memo-cache hit.
	Coalesced int `json:"coalesced"`
	FromCache int `json:"from_cache"`
	// Retries counts 503-shed attempts that were retried after the
	// server's Retry-After hint (capped exponential backoff with jitter);
	// a request only lands in Shed once its retry budget is spent.
	Retries int `json:"retries"`
	// ElapsedMS is the whole run's wall clock; ThroughputRPS is
	// completed requests per second over it.
	ElapsedMS     int64   `json:"elapsed_ms"`
	ThroughputRPS float64 `json:"throughput_rps"`
	// Latency percentiles over completed requests, microseconds.
	P50US  int64 `json:"p50_us"`
	P90US  int64 `json:"p90_us"`
	P99US  int64 `json:"p99_us"`
	P999US int64 `json:"p999_us"`
	MaxUS  int64 `json:"max_us"`
	MeanUS int64 `json:"mean_us"`
	// The full latency distribution over the same SLO bucket boundaries
	// the server's /metrics histograms use: HistBoundsUS[i] is the
	// inclusive upper bound (µs) of HistCounts[i], and the final extra
	// count holds everything past the last bound (+Inf). Trajectory
	// entries therefore diff bucket-by-bucket across runs.
	HistBoundsUS []int64 `json:"hist_bounds_us"`
	HistCounts   []int64 `json:"hist_counts"`
}

func main() { os.Exit(run()) }

func run() int {
	addr := flag.String("addr", "localhost:8080", "marchserve address")
	n := flag.Int("n", 100, "total requests to complete")
	c := flag.Int("c", 4, "concurrent closed-loop workers")
	faults := flag.String("faults", "SAF,TF;SAF,TF,ADF;SAF,TF,ADF,CFin;SAF,TF,ADF,CFin,CFid", "';'-separated fault lists the workers rotate through")
	budgetSpec := flag.String("budget", "", "per-request soft budget spec forwarded to the server")
	timeoutMS := flag.Int("timeout-ms", 0, "per-request timeout_ms forwarded to the server (0: server default)")
	retries := flag.Int("retries", 4, "max retries per request after a 503 shed (Retry-After honored, capped backoff + jitter)")
	out := flag.String("o", "", "append the run's report to this JSON trajectory file (e.g. BENCH_serve.json)")
	chaosFlags := bindChaosFlags(flag.CommandLine)
	flag.Parse()

	if chaosFlags.enabled {
		return chaosRun(chaosFlags)
	}
	if *n <= 0 || *c <= 0 {
		fmt.Fprintln(os.Stderr, "marchload: -n and -c must be positive")
		return budget.ExitUsage
	}
	if *retries < 0 {
		fmt.Fprintln(os.Stderr, "marchload: -retries must be non-negative")
		return budget.ExitUsage
	}
	lists := strings.Split(*faults, ";")
	for i := range lists {
		lists[i] = strings.TrimSpace(lists[i])
	}

	client := &http.Client{Timeout: 5 * time.Minute}
	url := "http://" + *addr + "/v1/generate"
	var seq atomic.Int64
	results := make([]result, 0, *n)
	var mu sync.Mutex
	var wg sync.WaitGroup

	start := time.Now()
	for w := 0; w < *c; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := seq.Add(1)
				if i > int64(*n) {
					return
				}
				res := fire(client, url, lists[int(i-1)%len(lists)], *budgetSpec, *timeoutMS, *retries)
				mu.Lock()
				results = append(results, res)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := summarize(results, elapsed)
	rep.Addr = *addr
	rep.Requests = *n
	rep.Concurrency = *c
	rep.FaultLists = lists
	rep.Timestamp = time.Now().UTC().Format(time.RFC3339)

	fmt.Printf("requests: %d ok / %d shed / %d errors (%d retries) in %s (%.1f req/s)\n",
		rep.OK, rep.Shed, rep.Errors, rep.Retries, elapsed.Round(time.Millisecond), rep.ThroughputRPS)
	fmt.Printf("latency:  p50 %s  p90 %s  p99 %s  p99.9 %s  max %s\n",
		time.Duration(rep.P50US)*time.Microsecond, time.Duration(rep.P90US)*time.Microsecond,
		time.Duration(rep.P99US)*time.Microsecond, time.Duration(rep.P999US)*time.Microsecond,
		time.Duration(rep.MaxUS)*time.Microsecond)
	fmt.Printf("sharing:  %d coalesced, %d from cache\n", rep.Coalesced, rep.FromCache)

	if *out != "" {
		if err := appendReport(*out, rep); err != nil {
			fmt.Fprintln(os.Stderr, "marchload:", err)
			return budget.ExitFail
		}
	}
	if rep.Errors > 0 {
		return budget.ExitFail
	}
	return budget.ExitOK
}

// fire issues one generate request and measures it, retrying 503 sheds
// up to maxRetries times. The server's Retry-After hint seeds the delay;
// each retry doubles it (capped at 5s) with ±25% jitter so a herd of shed
// workers doesn't re-arrive in lockstep. The measured latency covers the
// whole exchange including backoff sleeps — a retried request is honest
// about the time its caller actually waited.
func fire(client *http.Client, url, faults, budgetSpec string, timeoutMS, maxRetries int) result {
	body, _ := json.Marshal(map[string]any{
		"faults":     faults,
		"budget":     budgetSpec,
		"timeout_ms": timeoutMS,
	})
	t0 := time.Now()
	var retries int
	for attempt := 0; ; attempt++ {
		resp, err := client.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			return result{latency: time.Since(t0), status: 0, retries: retries}
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable && attempt < maxRetries {
			retries++
			time.Sleep(backoff(resp.Header.Get("Retry-After"), attempt))
			continue
		}
		var parsed struct {
			Coalesced bool `json:"coalesced"`
			FromCache bool `json:"from_cache"`
		}
		_ = json.Unmarshal(raw, &parsed)
		return result{
			latency:   time.Since(t0),
			status:    resp.StatusCode,
			coalesced: parsed.Coalesced,
			fromCache: parsed.FromCache,
			shed:      resp.StatusCode == http.StatusServiceUnavailable,
			retries:   retries,
		}
	}
}

// backoff computes the sleep before retry number attempt+1: the server's
// Retry-After seconds (default 100ms when absent) doubled per attempt,
// capped at 5s, jittered ±25%.
func backoff(retryAfter string, attempt int) time.Duration {
	base := 100 * time.Millisecond
	if secs, err := strconv.Atoi(strings.TrimSpace(retryAfter)); err == nil && secs > 0 {
		base = time.Duration(secs) * time.Second
	}
	d := base << attempt
	if d > 5*time.Second {
		d = 5 * time.Second
	}
	// ±25% jitter.
	j := time.Duration(rand.Int63n(int64(d)/2+1)) - d/4
	return d + j
}

// summarize folds the individual measurements into a Report.
func summarize(results []result, elapsed time.Duration) Report {
	rep := Report{ElapsedMS: elapsed.Milliseconds()}
	lat := make([]int64, 0, len(results))
	var sum int64
	for _, r := range results {
		switch {
		case r.status >= 200 && r.status < 300:
			rep.OK++
		case r.shed:
			rep.Shed++
		default:
			rep.Errors++
		}
		if r.coalesced {
			rep.Coalesced++
		}
		if r.fromCache {
			rep.FromCache++
		}
		rep.Retries += r.retries
		us := r.latency.Microseconds()
		lat = append(lat, us)
		sum += us
	}
	if len(lat) == 0 {
		return rep
	}
	sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
	pct := func(p float64) int64 {
		i := int(p * float64(len(lat)-1))
		return lat[i]
	}
	rep.P50US, rep.P90US, rep.P99US, rep.P999US = pct(0.50), pct(0.90), pct(0.99), pct(0.999)
	rep.MaxUS = lat[len(lat)-1]
	rep.MeanUS = sum / int64(len(lat))
	rep.HistBoundsUS = append([]int64(nil), obs.SLOLatencyBounds...)
	rep.HistCounts = make([]int64, len(rep.HistBoundsUS)+1)
	for _, us := range lat {
		i := sort.Search(len(rep.HistBoundsUS), func(k int) bool { return us <= rep.HistBoundsUS[k] })
		rep.HistCounts[i]++
	}
	if secs := elapsed.Seconds(); secs > 0 {
		rep.ThroughputRPS = float64(len(lat)) / secs
	}
	return rep
}

// appendReport appends rep to the JSON array in path, creating the file
// when absent — BENCH_serve.json is a trajectory: one entry per run.
func appendReport(path string, rep Report) error {
	var reports []Report
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &reports); err != nil {
			return fmt.Errorf("%s: existing file is not a report array: %w", path, err)
		}
	}
	reports = append(reports, rep)
	raw, err := json.MarshalIndent(reports, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
