package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"marchgen"
	"marchgen/fault"
	"marchgen/internal/experiments"
	"marchgen/march"
)

// The serve-mix request mix, in per mille of requests: verifies of
// library tests (sim and cover only), cold generates of distinct
// random-walk lists, and the rest hot generates (memo hits and
// coalescing). A run draws about 170 cold lists of the 259 the cold walk
// can reach.
const (
	verifyPermille = 150
	coldPermille   = 15
)

// Offered rates of the two phases. The mix saturated at about 830 rps on
// a 2-core x86-64 machine (completions fell behind the schedule from 1100
// rps offered); the high rate is about 77% of that.
const (
	nominalRPS = 300
	highRPS    = 640
)

// backlogMS is how much later the last quarter of a phase may be sent than
// the first before the phase counts as falling behind its schedule.
const backlogMS = 50

// coldMaxLen and coldMaxSelections keep cold lists small, so a cold
// request's cost varies little with the lists the seed drew.
const (
	coldMaxLen        = 2
	coldMaxSelections = 4
)

// coldReplays caps how many cold lists a traced serve-mix run replays
// layer by layer.
const coldReplays = 40

// verifyInputs are the verify requests of the mix: classic tests checked
// against fault lists they do and do not cover.
var verifyInputs = []struct{ known, faults string }{
	{"MarchC-", "SAF,TF,ADF,CFin,CFid"},
	{"MarchSS", "SAF,TF,CFst"},
	{"MarchRAW", "SAF,TF,RDF,DRDF,WDF"},
	{"MATS+", "SAF,TF"},
}

type reqKind int

const (
	hotGen reqKind = iota
	verifyReq
	coldGen
)

func (k reqKind) String() string { return [...]string{"hot", "verify", "cold"}[k] }

// request is one scheduled request.
type request struct {
	at     time.Duration // due time from the phase start
	kind   reqKind
	faults string
	known  string
}

// outcome is what the load generator saw for one request.
type outcome struct {
	due, sent, done time.Time
	status          int
	err             error
	test            string
	fromCache       bool
	coalesced       bool
	elapsedUS       int64
	complete        bool
	nonRedundant    bool
}

func (o outcome) latency() float64 { return msOf(o.done.Sub(o.due)) }
func (o outcome) lag() float64     { return msOf(o.sent.Sub(o.due)) }

// schedule lays out one phase: requests at a fixed interval, each kind
// and input drawn from the seeded generator.
func schedule(rng *rand.Rand, cold func() string, hot []string, rps int, d time.Duration) []request {
	n := int(float64(rps) * d.Seconds())
	out := make([]request, n)
	for i := range out {
		r := request{at: time.Duration(i) * time.Second / time.Duration(rps)}
		switch p := rng.Intn(1000); {
		case p < verifyPermille:
			v := verifyInputs[rng.Intn(len(verifyInputs))]
			r.kind, r.known, r.faults = verifyReq, v.known, v.faults
		case p < verifyPermille+coldPermille:
			r.kind, r.faults = coldGen, cold()
		default:
			r.kind, r.faults = hotGen, hot[rng.Intn(len(hot))]
		}
		out[i] = r
	}
	return out
}

// coldStream draws distinct random-walk lists that share no memo key with
// the hot set (SA0,SA1 is SAF by another name), so every cold request
// misses the result cache.
func coldStream(seed int64, hot []string) func() string {
	walk := newFaultWalk(seed, coldMaxLen, coldMaxSelections)
	hotKeys := map[string]bool{}
	for _, h := range hot {
		hotKeys[listKey(h)] = true
	}
	return func() string {
		for {
			if l := walk.next(); !hotKeys[listKey(l)] {
				return l
			}
		}
	}
}

// listKey is the memo key of a fault list's instance set.
func listKey(list string) string {
	models, err := fault.ParseList(list)
	if err != nil {
		panic(err) // hot rows and walk lists are fixed, parseable names
	}
	return fault.Key(fault.Instances(models))
}

// server is a spawned marchserve.
type server struct {
	cmd    *exec.Cmd
	base   string // http://addr
	debug  string // http://pprof addr, for expvar memstats
	stderr *bytes.Buffer
	exited chan struct{}
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startServer spawns marchserve with default engine flags and waits for
// /readyz. -pprof only adds the debug listener whose expvar memstats give
// the server's allocation counter.
func startServer(bin string, client *http.Client) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	dbg, err := freeAddr()
	if err != nil {
		return nil, err
	}
	s := &server{base: "http://" + addr, debug: "http://" + dbg, stderr: &bytes.Buffer{}, exited: make(chan struct{})}
	s.cmd = exec.Command(bin, "-addr", addr, "-pprof", dbg)
	s.cmd.Stderr = s.stderr
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start marchserve: %w", err)
	}
	go func() { _ = s.cmd.Wait(); close(s.exited) }()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := client.Get(s.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-s.exited:
			return nil, fmt.Errorf("marchserve exited before ready: %s", s.stderr.String())
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("marchserve not ready after 30s: %s", s.stderr.String())
		}
	}
}

// stop drains the server with SIGTERM and waits for it to exit, killing
// it if the drain hangs.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
}

// peakRSSMB is the stopped server's peak resident set size.
func (s *server) peakRSSMB() (float64, error) {
	ru, ok := s.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, errors.New("no resource usage for marchserve")
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// serverCounters reads /metrics and the expvar allocation counter.
func (s *server) counters(client *http.Client) (map[string]int64, error) {
	m := map[string]int64{}
	if err := getJSON(client, s.base+"/metrics", &m); err != nil {
		return nil, err
	}
	var vars struct {
		Memstats struct{ TotalAlloc uint64 } `json:"memstats"`
	}
	if err := getJSON(client, s.debug+"/debug/vars", &vars); err != nil {
		return nil, err
	}
	m["bench.total_alloc"] = int64(vars.Memstats.TotalAlloc)
	return m, nil
}

// send performs one request and decodes the fields the benchmark reads.
func send(client *http.Client, base string, r request) outcome {
	var o outcome
	var body []byte
	path := "/v1/generate"
	if r.kind == verifyReq {
		path = "/v1/verify"
		body, _ = json.Marshal(map[string]string{"known": r.known, "faults": r.faults})
	} else {
		body, _ = json.Marshal(map[string]string{"faults": r.faults})
	}
	resp, err := client.Post(base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		o.err = err
		return o
	}
	defer resp.Body.Close()
	o.status = resp.StatusCode
	var v struct {
		Test         string `json:"test"`
		FromCache    bool   `json:"from_cache"`
		Coalesced    bool   `json:"coalesced"`
		ElapsedUS    int64  `json:"elapsed_us"`
		Complete     bool   `json:"complete"`
		NonRedundant bool   `json:"non_redundant"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		o.err = err
		return o
	}
	o.test, o.fromCache, o.coalesced, o.elapsedUS = v.Test, v.FromCache, v.Coalesced, v.ElapsedUS
	o.complete, o.nonRedundant = v.Complete, v.NonRedundant
	return o
}

// runPhase replays a schedule open-loop over at most conns connections:
// each sender takes the next request in order, waits for its due time
// and sends it, so a slow response delays later requests and that delay
// counts in their latency.
func runPhase(client *http.Client, base string, sched []request, conns int) []outcome {
	out := make([]outcome, len(sched))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for k := 0; k < conns; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				due := start.Add(sched[i].at)
				time.Sleep(time.Until(due))
				sent := time.Now()
				o := send(client, base, sched[i])
				o.due, o.sent, o.done = due, sent, time.Now()
				out[i] = o
			}
		}()
	}
	wg.Wait()
	return out
}

// windows is how many consecutive windows of its schedule a phase's
// latencies are split into. A latency metric is the median of the
// windows' percentiles, so a stall of the shared machine during one
// window moves one value, not the figure.
const windows = 3

// phaseStats summarises one phase.
type phaseStats struct {
	ok      int
	span    time.Duration // first due to last completion
	backlog bool
}

// windowed splits the latencies of a phase's 200s, for the requests keep
// selects, into its windows by schedule position.
func windowed(out []outcome, keep func(i int) bool) [][]float64 {
	wins := make([][]float64, windows)
	for i, o := range out {
		if o.err == nil && o.status == http.StatusOK && keep(i) {
			w := i * windows / len(out)
			wins[w] = append(wins[w], o.latency())
		}
	}
	return wins
}

// windowMetric reports the median over windows of each window's
// rule-checked percentile.
func windowMetric(name string, wins [][]float64, want float64) metric {
	vals := make([]float64, len(wins))
	pct, n := 0.0, 0
	for i, w := range wins {
		t := percentile(w, want)
		vals[i], n = t.Value, n+t.N
		pct = max(pct, t.Pct)
	}
	return metric{name, "ms", median(vals), fmt.Sprintf("median of %d windows' p%g %.2f, n=%d", len(wins), pct, vals, n)}
}

func summarise(out []outcome) phaseStats {
	var p phaseStats
	var first, last time.Time
	for i, o := range out {
		if i == 0 || o.due.Before(first) {
			first = o.due
		}
		if o.done.After(last) {
			last = o.done
		}
		if o.err == nil && o.status == http.StatusOK {
			p.ok++
		}
	}
	p.span = last.Sub(first)
	// A backlog grows when the last quarter of the phase is sent much
	// later than the first: completions are falling behind the schedule.
	q := len(out) / 4
	if q > 0 {
		early, late := make([]float64, q), make([]float64, q)
		for i := 0; i < q; i++ {
			early[i], late[i] = out[i].lag(), out[len(out)-q+i].lag()
		}
		p.backlog = median(late)-median(early) > backlogMS
	}
	return p
}

// runServeMix spawns marchserve, warms the hot set, runs the nominal and
// the high-rate phase, then checks every 200 body against the library.
func runServeMix(seed int64, d time.Duration, traced bool, bin string) (*result, error) {
	if bin == "" {
		return nil, errors.New("serve-mix needs --server-bin")
	}
	conns := runtime.NumCPU()
	client := &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns},
	}
	defer client.CloseIdleConnections()
	var hot []string
	for _, s := range experiments.Table3Spec() {
		hot = append(hot, s.Faults)
	}
	// Set-up is server spawn to /readyz plus warming the hot set; each
	// repetition starts a fresh server, and the last one is measured.
	var srv *server
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	var setup []float64
	for i := 0; i < setupRuns; i++ {
		if srv != nil {
			srv.stop()
		}
		t0 := time.Now()
		var err error
		if srv, err = startServer(bin, client); err != nil {
			return nil, err
		}
		for _, f := range hot {
			o := send(client, srv.base, request{kind: hotGen, faults: f})
			if o.err != nil || o.status != http.StatusOK {
				return nil, fmt.Errorf("warm %s: status %d, %v", f, o.status, o.err)
			}
		}
		setup = append(setup, time.Since(t0).Seconds())
	}

	rng := rand.New(rand.NewSource(seed))
	cold := coldStream(seed, hot)
	nominal := schedule(rng, cold, hot, nominalRPS, d/2)
	high := schedule(rng, cold, hot, highRPS, d/2)

	c0, err := srv.counters(client)
	if err != nil {
		return nil, err
	}
	outN := runPhase(client, srv.base, nominal, conns)
	c1, err := srv.counters(client)
	if err != nil {
		return nil, err
	}
	outH := runPhase(client, srv.base, high, conns)
	c2, err := srv.counters(client)
	if err != nil {
		return nil, err
	}
	srv.stop()
	rss, err := srv.peakRSSMB()
	if err != nil {
		return nil, err
	}

	res := &result{}
	sched := append(append([]request(nil), nominal...), high...)
	outs := append(append([]outcome(nil), outN...), outH...)
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	wrong, err := checkServe(sched, outs, tr, res)
	if err != nil {
		return nil, err
	}
	pn, ph := summarise(outN), summarise(outH)
	for i, p := range []phaseStats{pn, ph} {
		name := [...]string{"nominal", "high"}[i]
		if p.backlog {
			fmt.Fprintf(os.Stderr, "perfbench: BACKLOG: the %s phase fell behind its schedule\n", name)
			res.note("BACKLOG in the %s phase", name)
		}
	}
	for _, k := range []reqKind{hotGen, verifyReq, coldGen} {
		var lat []float64
		for i, o := range outN {
			if nominal[i].kind == k && o.err == nil && o.status == http.StatusOK {
				lat = append(lat, o.latency())
			}
		}
		res.note("nominal %-6s n=%-4d p50 %.2f ms, p90 %.2f ms, max %.2f ms", k, len(lat), quantileOf(lat, 0.5), quantileOf(lat, 0.9), quantileOf(lat, 1))
	}
	all := func(int) bool { return true }
	isGen := func(i int) bool { return nominal[i].kind != verifyReq }
	genLat := windowed(outN, isGen)
	okGen := 0
	for _, w := range genLat {
		okGen += len(w)
	}
	attempted := len(outs)
	failed := attempted - pn.ok - ph.ok + wrong
	ok := ratio(float64(attempted-failed), float64(attempted))
	allocPerReq := float64(c1["bench.total_alloc"]-c0["bench.total_alloc"]) / 1e6 / float64(len(outN))
	res.EndToEnd = []metric{
		setupMetric(setup),
		{"gen_per_s", "1/s", float64(okGen) / pn.span.Seconds(), fmt.Sprintf("generate 200s per second, nominal phase, n=%d", okGen)},
		windowMetric("gen_p50_ms", genLat, 50),
		{"alloc_mb_per_gen", "MB", allocPerReq, fmt.Sprintf("server bytes allocated per request, nominal phase, n=%d", len(outN))},
		{"peak_rss_mb", "MB", rss, "marchserve maxrss"},
		{"ok_ratio", "ratio", ok, fmt.Sprintf("error_rate=%.4f of %d", 1-ok, attempted)},
		windowMetric("req_p50_ms", windowed(outN, all), 50),
		{"achieved_rps", "ratio", float64(ph.ok) / ph.span.Seconds() / highRPS, fmt.Sprintf("high phase: %d ok at %d rps offered", ph.ok, highRPS)},
	}
	res.Tails = []metric{
		windowMetric("gen_p90_ms", genLat, 90),
		windowMetric("req_p99_ms", windowed(outN, all), 99),
		windowMetric("req_p99_high_ms", windowed(outH, all), 99),
	}
	res.note("open loop over %d connections: %d rps nominal, %d rps high, %s each", conns, nominalRPS, highRPS, d/2)
	if traced {
		// Requests are timed from outside the server either way, so the
		// traced run's end-to-end metrics are the untraced ones.
		res.Traced = res.EndToEnd
		res.Layers = append(tr.metrics(serveLayerOf(outs, sched, c0, c2), 0), res.Tails...)
		res.note("hot generate: median overhead share of latency %.3f", hotOverheadShare(outs, sched))
	}
	res.Attempted, res.Failed, res.Correct = attempted, failed, wrong == 0
	return res, nil
}

// serveLayerOf derives the serve-side layer figures from the response
// fields and the /metrics deltas over both phases.
func serveLayerOf(outs []outcome, sched []request, c0, c2 map[string]int64) serveLayer {
	var over, lag []float64
	gens, cached, coalesced := 0, 0, 0
	for i, o := range outs {
		lag = append(lag, o.lag())
		if o.err != nil || o.status != http.StatusOK {
			continue
		}
		over = append(over, msOf(o.done.Sub(o.sent))-float64(o.elapsedUS)/1000)
		if sched[i].kind != verifyReq {
			gens++
			if o.fromCache {
				cached++
			}
			if o.coalesced {
				coalesced++
			}
		}
	}
	return serveLayer{
		overheadP50:   percentile(over, 50),
		overheadP99:   percentile(over, 99),
		fromCache:     ratio(float64(cached), float64(gens)),
		coalesced:     ratio(float64(coalesced), float64(gens)),
		shed:          float64(c2["serve.shed"] - c0["serve.shed"]),
		lagP99:        percentile(lag, 99),
		memoHits:      c2["memo.shared.hits"] - c0["memo.shared.hits"],
		memoMisses:    c2["memo.shared.misses"] - c0["memo.shared.misses"],
		memoEvictions: c2["memo.shared.evictions"] - c0["memo.shared.evictions"],
		fromServer:    true,
	}
}

// hotOverheadShare is the median share of a hot generate's round trip
// spent outside the engine.
func hotOverheadShare(outs []outcome, sched []request) float64 {
	var share []float64
	for i, o := range outs {
		if sched[i].kind == hotGen && o.err == nil && o.status == http.StatusOK {
			rt := msOf(o.done.Sub(o.sent))
			share = append(share, ratio(rt-float64(o.elapsedUS)/1000, rt))
		}
	}
	return median(share)
}

// checkServe compares every 200 body with the library's result for the
// same request, computed in this process after the timed phases. With a
// tracer, it also replays the cold lists and verify inputs layer by
// layer. It returns the number of wrong responses.
func checkServe(sched []request, outs []outcome, tr *tracer, res *result) (int, error) {
	ctx := context.Background()
	type want struct {
		test               string
		complete, nonRedun bool
	}
	lib := map[string]want{}
	replayed := 0
	dg := newDigest()
	wrong := 0
	for i, r := range sched {
		key := r.kind.String() + " " + r.known + " " + r.faults
		w, ok := lib[key]
		if !ok {
			if r.kind == verifyReq {
				kt, _ := march.Known(r.known)
				rep, err := marchgen.VerifyWorkersCtx(ctx, kt.Test, r.faults, 0)
				if err != nil {
					return 0, fmt.Errorf("library verify %s: %w", key, err)
				}
				w = want{rep.Test.String(), rep.Complete, rep.NonRedundant}
				if tr != nil {
					if err := replayVerify(ctx, tr.rec, &tr.counts, key, kt.Test, r.faults); err != nil {
						return 0, err
					}
				}
			} else {
				opts := []marchgen.Option{}
				if tr != nil {
					opts = append(opts, marchgen.WithMetrics())
				}
				g, err := marchgen.GenerateCtx(ctx, r.faults, opts...)
				if err != nil {
					return 0, fmt.Errorf("library generate %s: %w", key, err)
				}
				w = want{test: g.Test.String()}
				if tr != nil && r.kind == coldGen && replayed < coldReplays {
					replayed++
					if err := tr.observe(ctx, key, r.faults, g); err != nil {
						return 0, err
					}
				}
			}
			lib[key] = w
		}
		o := outs[i]
		if i < digestPrefix {
			dg.add("%s | %d | %s", key, o.status, o.test)
		}
		if o.err != nil || o.status != http.StatusOK {
			continue
		}
		if o.test != w.test || (r.kind == verifyReq && (o.complete != w.complete || o.nonRedundant != w.nonRedun)) {
			wrong++
			res.note("WRONG %s: served %q, library %q", key, o.test, w.test)
		}
	}
	res.note("digest %s", dg)
	return wrong, nil
}
