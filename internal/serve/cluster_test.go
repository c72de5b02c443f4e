package serve

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"marchgen"
	"marchgen/fault"
	"marchgen/internal/cluster"
	"marchgen/internal/core"
	"marchgen/internal/memo"
	"marchgen/internal/obs"
)

// clusterMemTier is an in-memory memo.DiskTier for the cold-replica
// tests.
type clusterMemTier struct {
	mu sync.Mutex
	m  map[string][]byte
}

func newClusterMemTier() *clusterMemTier { return &clusterMemTier{m: map[string][]byte{}} }

func (t *clusterMemTier) Get(key string) ([]byte, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, ok := t.m[key]
	return data, ok
}

func (t *clusterMemTier) Put(key string, data []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.m[key] = append([]byte(nil), data...)
}

func (t *clusterMemTier) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.m)
}

// listen grabs a loopback listener so a replica's advertised address is
// known before its server exists (the ring needs addresses up front).
func listen(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// deadAddr returns a loopback address that refuses connections.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln := listen(t)
	addr := ln.Addr().String()
	_ = ln.Close()
	return addr
}

// resetClusterGlobals detaches the process-global tiers a replica's
// initCluster installs and empties the shared memo cache, so replica
// tests cannot leak warm state or live peer clients into each other.
// Register it before starting replicas: cleanups run LIFO, so the
// detach lands after every server has drained.
func resetClusterGlobals(t *testing.T) {
	t.Helper()
	t.Cleanup(func() {
		memo.Shared().DetachDisk()
		marchgen.ResetCache()
	})
	marchgen.ResetCache()
}

// startReplica runs a Server on a pre-allocated listener.
func startReplica(t *testing.T, cfg Config, ln net.Listener) *Server {
	t.Helper()
	s := New(cfg)
	hs := &http.Server{Handler: s.Handler()}
	go func() { _ = hs.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
		_ = hs.Close()
	})
	return s
}

// TestPeerMemoAdoption is the cold-replica satellite lock: a replica
// whose memo cache is stone cold, fetching a key warm on a peer, must
// serve the byte-identical result with zero engine runs — and, having
// adopted the bytes locally, keep serving it after the peer dies.
func TestPeerMemoAdoption(t *testing.T) {
	resetClusterGlobals(t)
	const list = "SAF,TF,ADF"

	lnA := listen(t)
	addrA := lnA.Addr().String()
	startReplica(t, Config{Self: addrA, Peers: []string{addrA, deadAddr(t)}}, lnA)

	// Warm replica A over HTTP.
	resp, raw := post(t, "http://"+addrA+"/v1/generate", GenerateRequest{Faults: list})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warmup status %d: %s", resp.StatusCode, raw)
	}
	var warm GenerateResponse
	if err := json.Unmarshal(raw, &warm); err != nil {
		t.Fatal(err)
	}

	// The cold side: its own memo cache (nothing shared with A's
	// process-global one) whose only second tier is the peer fetch.
	runB := obs.NewRun()
	clB := cluster.New(cluster.Config{
		Self:  "127.0.0.1:1", // no server here; A is the only live peer
		Peers: []string{"127.0.0.1:1", addrA},
		Obs:   runB,
	})
	defer clB.Close()
	localB := newClusterMemTier()
	cacheB := memo.New(0)
	cacheB.AttachDisk(cluster.NewPeerTier(localB, clB), core.Codec())

	models, err := fault.ParseList(list)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.Cache = cacheB
	opts.Obs = runB
	res, err := core.GenerateCtx(context.Background(), models, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.FromCache {
		t.Fatal("cold replica did not serve from the peer-fetched memo entry")
	}
	if got := res.Test.String(); got != warm.Test {
		t.Fatalf("cold replica produced %q, peer produced %q", got, warm.Test)
	}
	snap := runB.Snapshot()
	if snap["sim.evaluations"] != 0 || snap["atsp.enum.nodes"] != 0 {
		t.Fatalf("cold replica ran the engine: sim.evaluations=%d atsp.enum.nodes=%d",
			snap["sim.evaluations"], snap["atsp.enum.nodes"])
	}
	if snap["memo.result_hits"] != 1 {
		t.Fatalf("memo.result_hits = %d, want 1 (metrics %v)", snap["memo.result_hits"], snap)
	}
	if snap["cluster.fetch.hits"] == 0 || snap["cluster.adopted"] == 0 {
		t.Fatalf("peer fetch not exercised: fetch.hits=%d adopted=%d",
			snap["cluster.fetch.hits"], snap["cluster.adopted"])
	}
	if localB.len() == 0 {
		t.Fatal("peer hit was not adopted into the local tier")
	}

	// Kill the peer. A fresh in-memory cache over the same local tier
	// must still serve the result — the adoption made it durable here.
	lnA.Close()
	runB2 := obs.NewRun()
	cacheB2 := memo.New(0)
	cacheB2.AttachDisk(cluster.NewPeerTier(localB, clB), core.Codec())
	opts2 := core.DefaultOptions()
	opts2.Cache = cacheB2
	opts2.Obs = runB2
	res2, err := core.GenerateCtx(context.Background(), models, opts2)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.FromCache || res2.Test.String() != warm.Test {
		t.Fatalf("after peer death: FromCache=%v test=%q, want cached %q",
			res2.FromCache, res2.Test, warm.Test)
	}
	if snap2 := runB2.Snapshot(); snap2["sim.evaluations"] != 0 {
		t.Fatalf("post-death serve ran the engine: %v", snap2)
	}
}

// TestForwardOrServe locks the routing mechanism: the same request sent
// to either replica of a two-replica set succeeds, reports the same
// serving replica (the ring owner), and exactly one of the two entry
// points forwarded.
func TestForwardOrServe(t *testing.T) {
	resetClusterGlobals(t)
	lnA, lnB := listen(t), listen(t)
	addrA, addrB := lnA.Addr().String(), lnB.Addr().String()
	peers := []string{addrA, addrB}
	sA := startReplica(t, Config{Self: addrA, Peers: peers}, lnA)
	sB := startReplica(t, Config{Self: addrB, Peers: peers}, lnB)

	req := GenerateRequest{Faults: "SAF,TF"}
	respA, rawA := post(t, "http://"+addrA+"/v1/generate", req)
	respB, rawB := post(t, "http://"+addrB+"/v1/generate", req)
	if respA.StatusCode != http.StatusOK || respB.StatusCode != http.StatusOK {
		t.Fatalf("statuses %d / %d: %s / %s", respA.StatusCode, respB.StatusCode, rawA, rawB)
	}
	servedA := respA.Header.Get(cluster.ServedByHeader)
	servedB := respB.Header.Get(cluster.ServedByHeader)
	if servedA == "" || servedA != servedB {
		t.Fatalf("served-by %q / %q, want the same owner from both entry points", servedA, servedB)
	}
	if servedA != addrA && servedA != addrB {
		t.Fatalf("served-by %q is not a replica address", servedA)
	}
	var outA, outB GenerateResponse
	if err := json.Unmarshal(rawA, &outA); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(rawB, &outB); err != nil {
		t.Fatal(err)
	}
	if outA.Test == "" || outA.Test != outB.Test {
		t.Fatalf("tests differ across entry points: %q vs %q", outA.Test, outB.Test)
	}
	forwards := sA.run.Snapshot()["serve.cluster.forwarded"] + sB.run.Snapshot()["serve.cluster.forwarded"]
	if forwards != 1 {
		t.Fatalf("total forwards = %d, want exactly 1 (one entry point owns the key)", forwards)
	}
}

// TestMemoEndpoints locks the internal memo endpoints: key validation,
// clean 404 misses, rejection of undecodable offers (the compiled-LUT
// wire form included: replicas no longer share LUTs), and a full
// offer-then-fetch round trip through the shared cache.
func TestMemoEndpoints(t *testing.T) {
	resetClusterGlobals(t)
	_, ts := newTestServer(t, Config{Self: "127.0.0.1:9", Peers: []string{"127.0.0.1:9", deadAddr(t)}})
	key := strings.Repeat("ab12", 16) // 64 hex chars

	get := func(k string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + cluster.MemoPathPrefix + k)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf [1 << 16]byte
		n, _ := resp.Body.Read(buf[:])
		return resp, buf[:n]
	}
	put := func(k string, body []byte) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+cluster.MemoPathPrefix+k, "application/octet-stream", strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	if resp, _ := get("not-a-key"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed key GET: %d, want 400", resp.StatusCode)
	}
	if resp, _ := get(strings.Repeat("A", 64)); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("uppercase key GET: %d, want 400", resp.StatusCode)
	}
	if resp, _ := get(key); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown key GET: %d, want 404", resp.StatusCode)
	}
	if resp := put(key, []byte("not an encoded entry")); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage PUT: %d, want 400", resp.StatusCode)
	}
	const lut = `{"v":1,"name":"SA0",` +
		`"next":[[0,0,0,1,0,0,0],[1,1,0,1,1,1,1],[2,2,0,1,2,2,2],[0,0,3,4,3,3,3],[1,1,3,4,4,4,4],[2,2,3,4,5,5,5],[0,0,6,7,6,6,6],[1,1,6,7,7,7,7],[2,2,6,7,8,8,8]],` +
		`"out":[[2,2,2,2,0,0,2],[2,2,2,2,0,1,2],[2,2,2,2,0,2,2],[2,2,2,2,1,0,2],[2,2,2,2,1,1,2],[2,2,2,2,1,2,2],[2,2,2,2,2,0,2],[2,2,2,2,2,1,2],[2,2,2,2,2,2,2]]}`
	if resp := put(key, []byte(lut)); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("LUT PUT: %d, want 400", resp.StatusCode)
	}

	entry, ok := core.Codec().Encode(true) // a verdict entry
	if !ok {
		t.Fatal("codec cannot encode a verdict")
	}
	if resp := put(key, entry); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("verdict PUT: %d, want 204", resp.StatusCode)
	}
	resp, body := get(key)
	if resp.StatusCode != http.StatusOK || string(body) != string(entry) {
		t.Fatalf("round trip: status %d body %q, want the offered bytes back", resp.StatusCode, body)
	}
}

// TestReplicaSetByteIdentical locks replica-set byte identity on a
// multi-selection fault list: a request entered at a replica that does
// not own its key is served by the ring owner and returns exactly the
// test a single-process run produces.
func TestReplicaSetByteIdentical(t *testing.T) {
	resetClusterGlobals(t)
	const list = "SAF,TF,ADF,CFin"
	models, err := fault.ParseList(list)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.Cache = memo.New(0) // isolated: no help from the replicas' shared cache
	want, err := core.GenerateCtx(context.Background(), models, opts)
	if err != nil {
		t.Fatal(err)
	}

	lns := []net.Listener{listen(t), listen(t), listen(t)}
	peers := make([]string, len(lns))
	for i, ln := range lns {
		peers[i] = ln.Addr().String()
	}
	servers := make([]*Server, len(lns))
	for i, ln := range lns {
		servers[i] = startReplica(t, Config{Self: peers[i], Peers: peers}, ln)
	}

	req := GenerateRequest{Faults: list}
	owner := servers[0].cluster.Owner(generateKey(fault.Key(fault.Instances(models)), &req))
	entry := peers[0]
	if entry == owner {
		entry = peers[1]
	}
	resp, raw := post(t, "http://"+entry+"/v1/generate", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	if served := resp.Header.Get(cluster.ServedByHeader); served != owner {
		t.Fatalf("served by %q, want the ring owner %q", served, owner)
	}
	var out GenerateResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.Test != want.Test.String() {
		t.Fatalf("replica set produced %q, single process %q", out.Test, want.Test)
	}
}
