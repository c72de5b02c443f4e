// Command marchserve serves March-test generation, verification and
// simulation over HTTP/JSON:
//
//	marchserve -addr :8080
//	marchserve -addr :8080 -max-inflight 8 -queue 128 -budget soft=2s
//	marchserve -addr :8080 -trace serve.jsonl -metrics   # flushed on drain
//
//	curl -s localhost:8080/v1/generate -d '{"faults":"SAF,TF,ADF,CFin,CFid"}'
//	curl -s localhost:8080/healthz
//	curl -s localhost:8080/metrics
//
// Endpoints: POST /v1/generate, /v1/verify, /v1/simulate; GET /healthz,
// /readyz, /metrics. Concurrent identical generate requests coalesce onto
// one engine run; at most -max-inflight runs hold an engine permit at
// once, and a run whose deadline passes while it waits for one is
// answered 504; past the admission window requests are shed with 503
// and a Retry-After hint. See docs/api.md for the wire schemas and the
// error table.
//
// -store DIR additionally enables the durable job API (POST /v1/jobs,
// GET /v1/jobs/{id}, GET /v1/jobs/{id}/events): results are committed to
// a crash-safe content-addressed store under DIR, repeated submissions
// are cache hits, and a restarted server re-adopts incomplete jobs and
// re-runs them from their first stage. The store holds job records and
// results only; the engine's memo cache stays in process memory.
//
// SIGINT/SIGTERM drain gracefully: /readyz flips to 503, new requests are
// shed, in-flight requests finish (bounded by -drain-timeout), running
// jobs suspend with a durable checkpoint, then the listener closes and
// the observability flags flush.
//
// The MARCHCHAOS environment variable installs storage failpoints (see
// internal/chaos for the spec grammar, e.g. "fsync=0.01;kill=10") — the
// fault-injection hook the chaos harness (marchload -chaos) leans on.
//
// Exit codes: 0 clean shutdown, 1 listener failure, 2 usage error.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"marchgen"
	"marchgen/internal/budget"
	"marchgen/internal/chaos"
	"marchgen/internal/obs"
	"marchgen/internal/serve"
	"marchgen/internal/store"
)

func main() { os.Exit(run()) }

func run() int {
	addr := flag.String("addr", "localhost:8080", "listen address")
	maxInflight := flag.Int("max-inflight", 0, "max concurrent engine runs (0: GOMAXPROCS)")
	queue := flag.Int("queue", 0, "admission queue depth beyond the in-flight window (0: default 64)")
	timeout := flag.Duration("timeout", 0, "default per-request hard deadline (0: 30s)")
	maxTimeout := flag.Duration("max-timeout", 0, "cap on client-requested timeouts (0: 2m)")
	budgetSpec := flag.String("budget", "", "default soft budget for generate requests, e.g. nodes=100000,soft=2s")
	workers := flag.Int("workers", 0, "default worker-pool size of a generation's selection sweep, the only parallelism (0: GOMAXPROCS); verify and simulate run on one goroutine")
	storeDir := flag.String("store", "", "durable job store directory (enables the /v1/jobs API; empty: jobs disabled)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "max time to wait for in-flight requests on shutdown")
	obsFlags := obs.BindFlags(flag.CommandLine)
	flag.Parse()

	if *budgetSpec != "" {
		if _, err := marchgen.ParseBudget(*budgetSpec); err != nil {
			fmt.Fprintln(os.Stderr, "marchserve:", err)
			return budget.ExitUsage
		}
	}
	w, err := budget.ParseWorkers(*workers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "marchserve:", err)
		return budget.ExitUsage
	}

	if spec := os.Getenv("MARCHCHAOS"); spec != "" {
		if err := chaos.Enable(spec); err != nil {
			fmt.Fprintln(os.Stderr, "marchserve: MARCHCHAOS:", err)
			return budget.ExitUsage
		}
		fmt.Fprintf(os.Stderr, "marchserve: chaos failpoints armed: %s\n", spec)
	}

	orun, finish, err := obsFlags.Start(os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "marchserve:", err)
		return budget.ExitUsage
	}
	defer finish()

	var st *store.Store
	if *storeDir != "" {
		st, err = store.Open(*storeDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "marchserve:", err)
			return budget.ExitFail
		}
	}

	srv := serve.New(serve.Config{
		MaxInFlight:    *maxInflight,
		QueueDepth:     *queue,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		DefaultBudget:  *budgetSpec,
		Workers:        w,
		Store:          st,
		Obs:            orun,
	})
	if st != nil {
		fmt.Fprintf(os.Stderr, "marchserve: job store %s (%d incomplete jobs re-adopted)\n", *storeDir, srv.RecoveredJobs())
	}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		sig := <-sigCh
		fmt.Fprintf(os.Stderr, "marchserve: %v — draining (readyz now 503, new requests shed)\n", sig)
		srv.BeginDrain()
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "marchserve: drain cut short after %s: %v\n", *drainTimeout, err)
		}
		_ = httpSrv.Shutdown(ctx)
	}()

	fmt.Fprintf(os.Stderr, "marchserve: serving on http://%s (inflight=%d)\n", *addr, effectiveInflight(*maxInflight))
	err = httpSrv.ListenAndServe()
	if errors.Is(err, http.ErrServerClosed) {
		<-drained
		fmt.Fprintln(os.Stderr, "marchserve: drained, bye")
		return budget.ExitOK
	}
	fmt.Fprintln(os.Stderr, "marchserve:", err)
	return budget.ExitFail
}

// effectiveInflight mirrors serve.DefaultConfig's fill-in for the
// startup log line.
func effectiveInflight(n int) int {
	if n > 0 {
		return n
	}
	return serve.DefaultConfig().MaxInFlight
}
