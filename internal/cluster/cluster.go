package cluster

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"marchgen/internal/obs"
)

// MemoPathPrefix is the URL path prefix of the internal peer memo
// endpoint: GET fetches the raw encoded bytes of a locally-held memo
// entry, POST offers bytes for local adoption. The serving side never
// consults its own peer tier while answering, so peer fetches cannot
// recurse.
const MemoPathPrefix = "/v1/internal/memo/"

// ForwardHeader marks a request that has already been routed once by a
// replica. A receiving replica never forwards a marked request again,
// so routing loops are impossible even with disagreeing peer lists.
const ForwardHeader = "X-March-Forward"

// ServedByHeader names the replica whose engine actually answered a
// generate request — set by every replica, propagated unchanged through
// forwards, and tallied by marchload's per-replica distribution report.
const ServedByHeader = "X-March-Served-By"

// maxMemoEntryBytes bounds a single fetched or offered memo entry.
// Whole-result documents for the largest Table 3 workloads are a few
// tens of kilobytes; 4 MiB is comfortable headroom and still small
// enough that a misbehaving peer cannot balloon memory.
const maxMemoEntryBytes = 4 << 20

// replQueueDepth bounds the asynchronous owner-replication queue.
// Replication is best-effort: when the queue is full the entry is
// dropped (and counted), never blocked on.
const replQueueDepth = 256

// Config configures a Cluster.
type Config struct {
	// Self is this replica's advertised address (host:port), as it
	// appears in every replica's Peers list.
	Self string

	// Peers is the full replica-set address list (Self included or
	// not — it is always a member).
	Peers []string

	// FetchTimeout bounds one peer memo fetch. Zero means 500ms: long
	// enough for a loopback or rack-local round trip, short enough
	// that a dead peer costs a cache miss, not a stall.
	FetchTimeout time.Duration

	// Obs receives the cluster's counters (fetch hits/misses/errors,
	// replication drops). Nil disables them.
	Obs *obs.Run
}

// replItem is one queued owner-replication write.
type replItem struct {
	key  string
	data []byte
}

// fetchCall is one in-flight singleflight peer fetch.
type fetchCall struct {
	done chan struct{}
	data []byte
	ok   bool
}

// Cluster is the peer client of a replica set: deterministic ownership
// lookups over the consistent-hash ring, singleflighted peer memo
// fetches, and best-effort asynchronous replication of locally-produced
// entries to their ring owner. Safe for concurrent use.
type Cluster struct {
	ring   *Ring
	client *http.Client
	run    *obs.Run

	mu       sync.Mutex
	inflight map[string]*fetchCall

	repl     chan replItem
	replOnce sync.Once
	done     chan struct{}
}

// New builds the peer client for a replica set. The returned Cluster
// owns a background replication goroutine; call Close to stop it.
func New(cfg Config) *Cluster {
	timeout := cfg.FetchTimeout
	if timeout <= 0 {
		timeout = 500 * time.Millisecond
	}
	c := &Cluster{
		ring:     NewRing(cfg.Self, cfg.Peers),
		client:   &http.Client{Timeout: timeout},
		run:      cfg.Obs,
		inflight: map[string]*fetchCall{},
		repl:     make(chan replItem, replQueueDepth),
		done:     make(chan struct{}),
	}
	go c.replicate()
	return c
}

// Close stops the background replication goroutine. Queued replication
// writes are dropped; in-flight fetches complete normally.
func (c *Cluster) Close() {
	c.replOnce.Do(func() { close(c.done) })
}

// Self returns this replica's advertised address.
func (c *Cluster) Self() string { return c.ring.Self() }

// Members returns the sorted replica-set address list (self included).
func (c *Cluster) Members() []string { return c.ring.Members() }

// Owner returns the replica that owns key on the consistent-hash ring.
func (c *Cluster) Owner(key string) string { return c.ring.Owner(key) }

// FetchMemo fetches the encoded bytes of a memo entry from the replica
// set: the ring owner first, then every other peer, stopping at the
// first hit. Concurrent fetches of the same key share one round of
// requests (singleflight). Every failure — timeout, refused connection,
// 404 — is simply a miss.
func (c *Cluster) FetchMemo(key string) ([]byte, bool) {
	c.mu.Lock()
	if call, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		<-call.done
		return call.data, call.ok
	}
	call := &fetchCall{done: make(chan struct{})}
	c.inflight[key] = call
	c.mu.Unlock()

	call.data, call.ok = c.fetch(key)
	c.mu.Lock()
	delete(c.inflight, key)
	c.mu.Unlock()
	close(call.done)
	return call.data, call.ok
}

// fetch performs one round of peer requests for key, owner first.
func (c *Cluster) fetch(key string) ([]byte, bool) {
	owner := c.ring.Owner(key)
	tried := map[string]bool{c.ring.Self(): true}
	order := append([]string{owner}, c.ring.Others()...)
	for _, addr := range order {
		if tried[addr] {
			continue
		}
		tried[addr] = true
		data, err := c.get(addr, key)
		if err != nil {
			continue
		}
		if data != nil {
			c.run.Counter("cluster.fetch.hits").Inc()
			return data, true
		}
	}
	c.run.Counter("cluster.fetch.misses").Inc()
	return nil, false
}

// get performs one GET against one peer. A 404 returns (nil, nil) — a
// clean miss; transport errors and unexpected statuses return an error
// (counted, then treated as a miss by the caller).
func (c *Cluster) get(addr, key string) ([]byte, error) {
	resp, err := c.client.Get("http://" + addr + MemoPathPrefix + key)
	if err != nil {
		c.run.Counter("cluster.fetch.errors").Inc()
		return nil, err
	}
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}()
	switch resp.StatusCode {
	case http.StatusOK:
		data, err := io.ReadAll(io.LimitReader(resp.Body, maxMemoEntryBytes+1))
		if err != nil || len(data) == 0 || len(data) > maxMemoEntryBytes {
			c.run.Counter("cluster.fetch.errors").Inc()
			return nil, fmt.Errorf("cluster: bad memo body from %s", addr)
		}
		return data, nil
	case http.StatusNotFound:
		return nil, nil
	default:
		c.run.Counter("cluster.fetch.errors").Inc()
		return nil, fmt.Errorf("cluster: peer %s returned %d", addr, resp.StatusCode)
	}
}

// OfferMemo queues the encoded bytes of a locally-produced memo entry
// for asynchronous replication to the key's ring owner. A no-op when
// this replica is the owner; dropped (and counted) when the queue is
// full or the entry is oversized. Never blocks.
func (c *Cluster) OfferMemo(key string, data []byte) {
	if c.ring.Owner(key) == c.ring.Self() || len(data) == 0 || len(data) > maxMemoEntryBytes {
		return
	}
	select {
	case c.repl <- replItem{key: key, data: data}:
	default:
		c.run.Counter("cluster.replicate.dropped").Inc()
	}
}

// replicate drains the replication queue, POSTing each entry to its
// ring owner. Failures are counted and forgotten — the owner can always
// refetch or recompute.
func (c *Cluster) replicate() {
	for {
		select {
		case <-c.done:
			return
		case item := <-c.repl:
			owner := c.ring.Owner(item.key)
			if owner == c.ring.Self() {
				continue
			}
			resp, err := c.client.Post("http://"+owner+MemoPathPrefix+item.key,
				"application/octet-stream", bytes.NewReader(item.data))
			if err != nil {
				c.run.Counter("cluster.replicate.errors").Inc()
				continue
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
			if resp.StatusCode >= 300 {
				c.run.Counter("cluster.replicate.errors").Inc()
				continue
			}
			c.run.Counter("cluster.replicate.sent").Inc()
		}
	}
}
