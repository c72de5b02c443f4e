// Replica-set mode: marchload -replicas N spawns its own N-replica
// marchserve set (each replica with its own durable store, all joined
// by -peers), drives the usual closed-loop workload across it, and
// asserts the replica tier's two headline properties:
//
//   - byte identity: every 2xx response's test must equal the local
//     single-process marchgen.Generate result for its fault list —
//     through forwarding, peer-fetched memo warmth and (with
//     -replica-kill) the loss of a replica mid-run;
//
//   - visibility: the per-replica request distribution (from the
//     X-March-Served-By header) lands in the report, so a ring
//     imbalance shows up in BENCH_serve.json instead of hiding behind
//     an aggregate throughput number.
//
//     go build -o marchserve ./cmd/marchserve
//     go build -o marchload ./cmd/marchload
//     ./marchload -replicas 3 -replica-kill 2 -n 60 -c 4 -server-bin ./marchserve
//
// Workers rotate the target replica per request, so routing is
// exercised from every entry point; a transport error fails over to the
// next replica, which is how the run survives the kill.
package main

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"marchgen"
	"marchgen/internal/budget"
)

// replicaOpts carries the load-generator flags into a -replicas run.
type replicaOpts struct {
	replicas, kill int
	serverBin      string
	n, c           int
	lists          []string
	budgetSpec     string
	timeoutMS      int
	retries        int
	out            string
}

// replicasRun owns a whole replica-set experiment: spawn, load, kill,
// verify, report. Exit codes follow the load generator: 0 all requests
// succeeded and every response was byte-identical to the local
// computation, 1 otherwise, 2 usage error.
func replicasRun(o *replicaOpts) int {
	fail := func(format string, args ...any) int {
		fmt.Fprintf(os.Stderr, "marchload -replicas: FAIL: "+format+"\n", args...)
		return budget.ExitFail
	}
	if o.replicas < 1 || o.replicas > 16 {
		fmt.Fprintln(os.Stderr, "marchload: -replicas must be in [1, 16]")
		return budget.ExitUsage
	}
	if o.kill < 0 || o.kill > o.replicas {
		fmt.Fprintln(os.Stderr, "marchload: -replica-kill must name a replica in the set (1-based) or 0")
		return budget.ExitUsage
	}
	if o.kill > 0 && o.replicas < 2 {
		fmt.Fprintln(os.Stderr, "marchload: -replica-kill needs at least 2 replicas to leave a survivor")
		return budget.ExitUsage
	}

	addrs, err := freeAddrs(o.replicas)
	if err != nil {
		return fail("allocate ports: %v", err)
	}
	peers := ""
	for i, a := range addrs {
		if i > 0 {
			peers += ","
		}
		peers += a
	}

	procs := make([]*serverProc, o.replicas)
	for i, a := range addrs {
		dir, err := os.MkdirTemp("", "marchload-replica-")
		if err != nil {
			return fail("%v", err)
		}
		defer os.RemoveAll(dir)
		procs[i] = &serverProc{
			bin:       o.serverBin,
			addr:      a,
			dir:       dir,
			extraArgs: []string{"-peers", peers},
		}
		if err := procs[i].start(); err != nil {
			return fail("start replica %d on %s: %v", i+1, a, err)
		}
		defer procs[i].kill()
	}
	fmt.Fprintf(os.Stderr, "marchload -replicas: %d-replica set up: %v\n", o.replicas, addrs)

	// The kill fires once roughly a third of the way through the run —
	// late enough that the victim has served (and replicated) warmth,
	// early enough that plenty of load lands on the degraded set.
	var completed atomic.Int64
	killAt := int64(o.n) / 3
	var killOnce sync.Once
	killed := ""
	maybeKill := func() {
		if o.kill == 0 || completed.Load() < killAt {
			return
		}
		killOnce.Do(func() {
			killed = addrs[o.kill-1]
			fmt.Fprintf(os.Stderr, "marchload -replicas: kill -9 replica %d (%s) after %d requests\n",
				o.kill, killed, completed.Load())
			procs[o.kill-1].kill()
		})
	}

	client := &http.Client{Timeout: 5 * time.Minute}
	results := make([]result, 0, o.n)
	var mu sync.Mutex
	var seq atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < o.c; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := seq.Add(1)
				if i > int64(o.n) {
					return
				}
				faults := o.lists[int(i-1)%len(o.lists)]
				// Rotate the entry replica per request; a transport
				// error fails over to the next address in ring order.
				res := result{}
				for hop := 0; hop < len(addrs); hop++ {
					target := addrs[(int(i-1)+hop)%len(addrs)]
					res = fire(client, "http://"+target+"/v1/generate", faults, o.budgetSpec, o.timeoutMS, o.retries)
					if res.status != 0 {
						break
					}
				}
				mu.Lock()
				results = append(results, res)
				mu.Unlock()
				completed.Add(1)
				maybeKill()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	// Byte identity: every 2xx response must match the uninterrupted
	// local computation of its fault list, whichever replica served it
	// and whether it was computed or memo-warm.
	expect := map[string]string{}
	for _, list := range o.lists {
		res, err := marchgen.Generate(list)
		if err != nil {
			return fail("local %q: %v", list, err)
		}
		expect[list] = res.Test.String()
	}
	perReplica := map[string]int{}
	for _, r := range results {
		if r.status < 200 || r.status >= 300 {
			continue
		}
		served := r.servedBy
		if served == "" {
			served = "unknown"
		}
		perReplica[served]++
		if r.test != expect[r.faults] {
			return fail("response for %q diverged (served by %s)\n got: %s\nwant: %s",
				r.faults, served, r.test, expect[r.faults])
		}
	}

	rep := summarize(results, elapsed)
	rep.Addr = addrs[0]
	rep.Requests = o.n
	rep.Concurrency = o.c
	rep.FaultLists = o.lists
	rep.Timestamp = time.Now().UTC().Format(time.RFC3339)
	rep.Replicas = o.replicas
	rep.PerReplica = perReplica
	rep.KilledReplica = killed

	fmt.Printf("requests: %d ok / %d shed / %d errors (%d retries) in %s (%.1f req/s)\n",
		rep.OK, rep.Shed, rep.Errors, rep.Retries, elapsed.Round(time.Millisecond), rep.ThroughputRPS)
	fmt.Printf("latency:  p50 %s  p90 %s  p99 %s  p99.9 %s  max %s\n",
		time.Duration(rep.P50US)*time.Microsecond, time.Duration(rep.P90US)*time.Microsecond,
		time.Duration(rep.P99US)*time.Microsecond, time.Duration(rep.P999US)*time.Microsecond,
		time.Duration(rep.MaxUS)*time.Microsecond)
	fmt.Printf("sharing:  %d coalesced, %d from cache\n", rep.Coalesced, rep.FromCache)
	fmt.Printf("replicas: %s\n", formatDistribution(addrs, perReplica, killed))
	fmt.Println("identity: every 2xx response byte-identical to the single-process result")

	if o.out != "" {
		if err := appendReport(o.out, rep); err != nil {
			fmt.Fprintln(os.Stderr, "marchload:", err)
			return budget.ExitFail
		}
	}
	if rep.Errors > 0 {
		return fail("%d requests failed", rep.Errors)
	}
	return budget.ExitOK
}

// freeAddrs reserves n distinct loopback ports by briefly listening on
// each and returns the addresses.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	return addrs, nil
}

// formatDistribution renders the per-replica tally in set order, so the
// summary line reads the same run to run.
func formatDistribution(addrs []string, per map[string]int, killed string) string {
	out := ""
	for i, a := range addrs {
		if i > 0 {
			out += "  "
		}
		out += fmt.Sprintf("%s=%d", a, per[a])
		if a == killed {
			out += " (killed)"
		}
	}
	var extra []string
	for k := range per {
		found := false
		for _, a := range addrs {
			if a == k {
				found = true
				break
			}
		}
		if !found {
			extra = append(extra, k)
		}
	}
	sort.Strings(extra)
	for _, k := range extra {
		out += fmt.Sprintf("  %s=%d", k, per[k])
	}
	return out
}
