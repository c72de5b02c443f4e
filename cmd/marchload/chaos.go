// Chaos mode: a crash-recovery harness around marchserve's durable job
// API. marchload -chaos owns the whole experiment — server subprocess,
// kill -9 schedule, recovery assertions — so CI can run one command and
// get a pass/fail verdict on the crash-safety story:
//
//	go build -o marchserve ./cmd/marchserve
//	go build -o marchload ./cmd/marchload
//	./marchload -chaos -server-bin ./marchserve -jobs 6 -kills 2
//
// The harness submits a randomized mix of generate/verify/simulate jobs,
// SIGKILLs the server on a randomized schedule (restarting it over the
// same store each time), then polls every job to a terminal state and
// asserts: the job never 404s (durability), it reaches done or a typed
// error before the deadline (liveness), its result_hash matches the
// returned result bytes (integrity), and the result document is
// byte-identical to an uninterrupted in-process computation of the same
// request (determinism across resume).
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"time"

	"marchgen"
	"marchgen/internal/budget"
	"marchgen/internal/serve"
	"marchgen/march"
)

// chaosOpts collects the -chaos flag family. Bound on the main FlagSet so
// `marchload -chaos -h` documents them alongside the load-generator flags.
type chaosOpts struct {
	enabled    bool
	serverBin  string
	dir        string
	jobs       int
	kills      int
	seed       int64
	timeout    time.Duration
	failpoints string
}

func bindChaosFlags(fs *flag.FlagSet) *chaosOpts {
	o := &chaosOpts{}
	fs.BoolVar(&o.enabled, "chaos", false, "run the crash-recovery harness instead of the load generator")
	fs.StringVar(&o.serverBin, "server-bin", "marchserve", "path to the marchserve binary the harness spawns (-chaos)")
	fs.StringVar(&o.dir, "store-dir", "", "job store directory (-chaos; default: a fresh temp dir, removed on success)")
	fs.IntVar(&o.jobs, "jobs", 6, "jobs to submit (-chaos)")
	fs.IntVar(&o.kills, "kills", 2, "kill -9 / restart cycles while jobs run (-chaos)")
	fs.Int64Var(&o.seed, "seed", 1, "randomization seed for the job mix and kill schedule (-chaos)")
	fs.DurationVar(&o.timeout, "chaos-timeout", 3*time.Minute, "overall deadline for every job to reach a terminal state (-chaos)")
	fs.StringVar(&o.failpoints, "chaos-failpoints", "", "MARCHCHAOS failpoint spec forwarded to the server subprocess (-chaos)")
	return o
}

// chaosJob pairs a submission with the recipe for recomputing its
// canonical result document locally.
type chaosJob struct {
	req    serve.JobSubmitRequest
	id     string
	expect func() ([]byte, error)
}

// chaosMix builds the deterministic job pool the harness draws from:
// generate jobs across growing fault lists (long enough to straddle a
// kill) plus coverage jobs against known tests.
func chaosMix() []chaosJob {
	gen := func(faults string) chaosJob {
		return chaosJob{
			req: serve.JobSubmitRequest{Kind: "generate", Generate: &serve.GenerateRequest{Faults: faults}},
			expect: func() ([]byte, error) {
				res, err := marchgen.Generate(faults)
				if err != nil {
					return nil, err
				}
				return json.Marshal(serve.JobGenerateResult{
					Test:       res.Test.String(),
					ASCII:      res.Test.ASCII(),
					Complexity: res.Complexity,
					Instances:  len(res.Instances),
				})
			},
		}
	}
	coverage := func(kind, known, faults string, cells int) chaosJob {
		v := &serve.VerifyRequest{Known: known, Faults: faults, Cells: cells}
		req := serve.JobSubmitRequest{Kind: kind}
		if kind == "simulate" {
			req.Simulate = v
		} else {
			req.Verify = v
		}
		return chaosJob{
			req: req,
			expect: func() ([]byte, error) {
				kt, ok := march.Known(known)
				if !ok {
					return nil, fmt.Errorf("unknown test %q", known)
				}
				var rep *marchgen.CoverageReport
				var err error
				if kind == "simulate" {
					rep, err = marchgen.VerifyN(kt.Test, faults, cells)
				} else {
					rep, err = marchgen.Verify(kt.Test, faults)
				}
				if err != nil {
					return nil, err
				}
				out := serve.JobVerifyResult{
					Test:       rep.Test.String(),
					Complexity: rep.Complexity,
					Complete:   rep.Complete,
					Missed:     rep.Missed,
				}
				if kind == "simulate" {
					out.Cells = cells
				} else {
					out.NonRedundant = rep.NonRedundant
					out.RedundantReads = rep.RedundantReads
					out.RemovableOps = rep.RemovableOps
				}
				for _, inst := range rep.Instances {
					out.Instances = append(out.Instances, serve.InstanceVerdict{
						Model:        inst.Model,
						Name:         inst.Name,
						Detected:     inst.Detected,
						DetectingOps: inst.DetectingOps,
					})
				}
				return json.Marshal(out)
			},
		}
	}
	return []chaosJob{
		gen("SAF,TF,ADF,CFin,CFid"),
		gen("SAF,TF,ADF,CFin"),
		gen("SAF,TF,ADF"),
		gen("SAF,TF"),
		gen("SAF"),
		coverage("simulate", "MarchC-", "SAF,TF", 8),
		coverage("verify", "MATS+", "SAF", 0),
	}
}

// serverProc manages the marchserve subprocess across kill/restart
// cycles; every start reuses the same store directory. The exited
// channel closes when the current process dies — by our SIGKILL or by
// its own armed kill failpoint — so callers can tell "server restarting"
// from "server slow".
type serverProc struct {
	bin, addr, dir, failpoints string
	// extraArgs appends further marchserve flags (the replica driver
	// passes -peers here).
	extraArgs []string
	cmd       *exec.Cmd
	exited    chan struct{}
}

// start launches the server (relaunching if an armed kill failpoint
// strikes it down during startup recovery) and waits for /healthz.
func (p *serverProc) start() error {
	deadline := time.Now().Add(20 * time.Second)
	for {
		if p.cmd == nil {
			args := append([]string{"-addr", p.addr, "-store", p.dir}, p.extraArgs...)
			cmd := exec.Command(p.bin, args...)
			cmd.Stderr = os.Stderr
			cmd.Env = os.Environ()
			if p.failpoints != "" {
				cmd.Env = append(cmd.Env, "MARCHCHAOS="+p.failpoints)
			}
			if err := cmd.Start(); err != nil {
				return err
			}
			p.cmd = cmd
			done := make(chan struct{})
			p.exited = done
			go func(c *exec.Cmd) { _ = c.Wait(); close(done) }(cmd)
		}
		resp, err := http.Get("http://" + p.addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-p.exited:
			p.cmd = nil // died on its own; relaunch
		default:
		}
		if time.Now().After(deadline) {
			p.kill()
			return fmt.Errorf("server on %s never became healthy", p.addr)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// kill delivers SIGKILL — no drain, no checkpoint flush, the crash the
// store's atomic-rename discipline must absorb — and reaps the process.
func (p *serverProc) kill() {
	if p.cmd == nil || p.cmd.Process == nil {
		return
	}
	_ = p.cmd.Process.Kill()
	<-p.exited
	p.cmd = nil
}

// ensure restarts the server when the current process has exited on its
// own (the kill failpoint fires at checkpoints); a healthy process is
// left alone.
func (p *serverProc) ensure() error {
	if p.cmd != nil {
		select {
		case <-p.exited:
			p.cmd = nil
		default:
			return nil
		}
	}
	return p.start()
}

// chaosRun executes the harness. Exit codes follow the load generator:
// 0 every assertion held, 1 a job hung/vanished/diverged, 2 usage error.
func chaosRun(o *chaosOpts) int {
	fail := func(format string, args ...any) int {
		fmt.Fprintf(os.Stderr, "marchload -chaos: FAIL: "+format+"\n", args...)
		return budget.ExitFail
	}
	if o.jobs <= 0 || o.kills < 0 {
		fmt.Fprintln(os.Stderr, "marchload: -jobs must be positive and -kills non-negative")
		return budget.ExitUsage
	}
	rng := rand.New(rand.NewSource(o.seed))

	dir := o.dir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "marchload-chaos-")
		if err != nil {
			return fail("%v", err)
		}
		defer os.RemoveAll(dir)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail("%v", err)
	}
	addr := ln.Addr().String()
	ln.Close()

	srv := &serverProc{bin: o.serverBin, addr: addr, dir: dir, failpoints: o.failpoints}
	if err := srv.start(); err != nil {
		return fail("start server: %v", err)
	}
	defer srv.kill()
	fmt.Fprintf(os.Stderr, "marchload -chaos: server %s, store %s, %d jobs, %d kills, seed %d\n",
		addr, dir, o.jobs, o.kills, o.seed)

	// Submit the randomized mix. Identical requests collapse onto one
	// durable job (content-addressed ids), so track unique jobs.
	mix := chaosMix()
	client := &http.Client{Timeout: 30 * time.Second}
	base := "http://" + addr
	unique := map[string]*chaosJob{}
	var order []string
	for i := 0; i < o.jobs; i++ {
		j := mix[rng.Intn(len(mix))]
		body, _ := json.Marshal(j.req)
		var sub serve.JobStatusResponse
		submitBy := time.Now().Add(30 * time.Second)
		for {
			resp, err := client.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
			if err == nil {
				err = json.NewDecoder(resp.Body).Decode(&sub)
				resp.Body.Close()
				if err != nil {
					return fail("submit job %d: decode: %v", i, err)
				}
				if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
					return fail("submit job %d: status %d", i, resp.StatusCode)
				}
				break
			}
			// Server mid-crash (kill failpoint); revive and resubmit —
			// content addressing makes the retry idempotent.
			if time.Now().After(submitBy) {
				return fail("submit job %d: %v", i, err)
			}
			if err := srv.ensure(); err != nil {
				return fail("submit job %d: revive server: %v", i, err)
			}
			time.Sleep(50 * time.Millisecond)
		}
		if _, seen := unique[sub.ID]; !seen {
			jj := j
			jj.id = sub.ID
			unique[sub.ID] = &jj
			order = append(order, sub.ID)
		}
	}
	fmt.Fprintf(os.Stderr, "marchload -chaos: %d unique jobs in flight\n", len(order))

	// The kill schedule: SIGKILL at a randomized point mid-run, restart
	// over the same store, repeat. Early kills land while jobs are still
	// expanding their first stages; later ones hit resumed runs.
	for k := 0; k < o.kills; k++ {
		time.Sleep(time.Duration(30+rng.Intn(220)) * time.Millisecond)
		fmt.Fprintf(os.Stderr, "marchload -chaos: kill -9 #%d\n", k+1)
		srv.kill()
		if err := srv.start(); err != nil {
			return fail("restart after kill %d: %v", k+1, err)
		}
	}

	// Every job must reach a terminal state before the deadline, through
	// however many restarts — and never 404 (a durable job cannot
	// vanish).
	deadline := time.Now().Add(o.timeout)
	finals := map[string]serve.JobStatusResponse{}
	for _, id := range order {
		for {
			if time.Now().After(deadline) {
				return fail("job %s still not terminal at deadline (hang)", id)
			}
			resp, err := client.Get(base + "/v1/jobs/" + id)
			if err != nil {
				// Mid-restart (ours, or a self-kill failpoint); the job
				// record is durable — revive the server and retry.
				if err := srv.ensure(); err != nil {
					return fail("revive server: %v", err)
				}
				time.Sleep(100 * time.Millisecond)
				continue
			}
			var rec serve.JobStatusResponse
			err = json.NewDecoder(resp.Body).Decode(&rec)
			resp.Body.Close()
			if resp.StatusCode == http.StatusNotFound {
				return fail("job %s vanished (404)", id)
			}
			if resp.StatusCode != http.StatusOK || err != nil {
				return fail("job %s: status %d, err %v", id, resp.StatusCode, err)
			}
			if rec.State == "done" || rec.State == "failed" {
				finals[id] = rec
				break
			}
			time.Sleep(50 * time.Millisecond)
		}
	}

	// Verdicts: done jobs must carry a result whose hash matches and
	// whose bytes equal an uninterrupted local computation. A failed job
	// must be typed; that only counts as a pass when failpoints are
	// armed (injected I/O errors legitimately surface as typed failures
	// like store_io) — under pure kill -9 chaos every job must resume
	// and complete.
	resumes, typedFails := 0, 0
	for _, id := range order {
		rec := finals[id]
		resumes += rec.Resumes
		if rec.State == "failed" {
			if rec.Error == nil || rec.Error.Code == "" {
				return fail("job %s failed without a typed error", id)
			}
			if o.failpoints == "" {
				return fail("job %s failed: %s (%s)", id, rec.Error.Code, rec.Error.Message)
			}
			fmt.Fprintf(os.Stderr, "marchload -chaos: job %s failed typed under failpoints: %s (%s)\n",
				id, rec.Error.Code, rec.Error.Message)
			typedFails++
			continue
		}
		if len(rec.Result) == 0 {
			return fail("done job %s has no result document", id)
		}
		sum := sha256.Sum256(rec.Result)
		if got := hex.EncodeToString(sum[:]); got != rec.ResultHash {
			return fail("job %s: result bytes hash %s, record says %s (torn write)", id, got, rec.ResultHash)
		}
		want, err := unique[id].expect()
		if err != nil {
			return fail("job %s: local recomputation: %v", id, err)
		}
		if !bytes.Equal(rec.Result, want) {
			return fail("job %s: result diverged from uninterrupted run\n got: %s\nwant: %s", id, rec.Result, want)
		}
	}
	fmt.Fprintf(os.Stderr, "marchload -chaos: PASS: %d/%d jobs done byte-identical across %d kills (%d resumes, %d typed failures)\n",
		len(order)-typedFails, len(order), o.kills, resumes, typedFails)
	return budget.ExitOK
}
