// Replica-set wiring: the serve-layer face of internal/cluster.
//
// With Config.Peers set, a Server becomes one replica of a set. Two
// mechanisms turn N replicas into one warm engine, both optional-path —
// every peer failure degrades to exactly the single-node behaviour:
//
//   - forward-or-serve: /v1/generate requests are routed to the replica
//     that owns the request's memo content-hash key on the consistent
//     hash ring, so identical requests land on one replica's coalescer
//     and memo cache no matter which replica the client picked. An
//     unreachable owner means the receiving replica serves locally.
//   - the peer memo tier: the shared memo cache's second level becomes
//     local-store-then-peers (cluster.PeerTier), and two internal
//     endpoints expose/accept raw entry bytes. GETs answer strictly
//     from local holdings (store, then in-memory caches) — never from
//     the peer tier, which is what makes peer fetches recursion-free.
package serve

import (
	"bytes"
	"io"
	"net/http"

	"marchgen/internal/cluster"
	"marchgen/internal/core"
	"marchgen/internal/jobs"
	"marchgen/internal/memo"
	"marchgen/internal/simd"
)

// initCluster wires the replica set into a new Server: the peer client,
// the peer memo tier under the shared cache (layered over the durable
// store tier when one is configured) and the peer tier under the
// kernel's LUT cache.
func (s *Server) initCluster() {
	others := 0
	for _, p := range s.cfg.Peers {
		if p != "" && p != s.cfg.Self {
			others++
		}
	}
	if others == 0 {
		return
	}
	cl := cluster.New(cluster.Config{Self: s.cfg.Self, Peers: s.cfg.Peers, Obs: s.run})
	s.cluster = cl
	var local memo.DiskTier
	if s.store != nil {
		local = jobs.MemoTier(s.store)
	}
	memo.Shared().AttachDisk(cluster.NewPeerTier(local, cl), core.Codec())
	simd.AttachLUTTier(cluster.NewPeerTier(nil, cl))
}

// validMemoKey guards the internal memo endpoints' path parameter:
// memo keys are hex SHA-256 fingerprints, exactly 64 lowercase hex
// characters — anything else is rejected before it reaches a store.
func validMemoKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// handleMemoGet serves GET /v1/internal/memo/{key}: the raw encoded
// bytes of a locally-held memo entry — durable store first, then the
// in-memory result/fragment cache, then the kernel LUT cache. Strictly
// local: the peer tier is never consulted, so peers probing each other
// cannot recurse.
func (s *Server) handleMemoGet(w http.ResponseWriter, r *http.Request) {
	if s.cluster == nil {
		writeErrorNoReq(w, http.StatusServiceUnavailable, "cluster_disabled", "this server is not part of a replica set")
		return
	}
	key := r.PathValue("key")
	if !validMemoKey(key) {
		writeErrorNoReq(w, http.StatusBadRequest, "bad_request", "malformed memo key")
		return
	}
	data, ok := s.localMemoBytes(key)
	if !ok {
		s.run.Counter("serve.cluster.memo_get.misses").Inc()
		writeErrorNoReq(w, http.StatusNotFound, "not_found", "no local entry under that key")
		return
	}
	s.run.Counter("serve.cluster.memo_get.hits").Inc()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}

// localMemoBytes looks a memo key up in this replica's own holdings.
func (s *Server) localMemoBytes(key string) ([]byte, bool) {
	if s.store != nil {
		if data, ok := jobs.MemoTier(s.store).Get(key); ok {
			return data, true
		}
	}
	if v, ok := memo.Shared().Peek(key); ok {
		if data, ok := core.Codec().Encode(v); ok {
			return data, true
		}
	}
	return simd.PeekEncoded(key)
}

// handleMemoPut serves POST /v1/internal/memo/{key}: a peer offering
// entry bytes for adoption (the replication leg of the peer tier).
// Recognised engine entries are adopted into the in-memory cache and,
// when a store is configured, persisted; LUT entries are adopted into
// the kernel cache. Unrecognised bytes are rejected — a replica never
// stores what it cannot decode.
func (s *Server) handleMemoPut(w http.ResponseWriter, r *http.Request) {
	if s.cluster == nil {
		writeErrorNoReq(w, http.StatusServiceUnavailable, "cluster_disabled", "this server is not part of a replica set")
		return
	}
	key := r.PathValue("key")
	if !validMemoKey(key) {
		writeErrorNoReq(w, http.StatusBadRequest, "bad_request", "malformed memo key")
		return
	}
	data, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes*4))
	if err != nil || len(data) == 0 {
		writeErrorNoReq(w, http.StatusBadRequest, "bad_request", "unreadable entry body")
		return
	}
	switch {
	case s.adoptEngineEntry(key, data):
	case simd.AdoptEncoded(key, data):
	default:
		writeErrorNoReq(w, http.StatusBadRequest, "bad_request", "unrecognised entry encoding")
		return
	}
	s.run.Counter("serve.cluster.memo_put.adopted").Inc()
	w.WriteHeader(http.StatusNoContent)
}

// adoptEngineEntry decodes and adopts one engine memo entry (result,
// tour or verdict kind), persisting the original bytes when a
// durable store is configured.
func (s *Server) adoptEngineEntry(key string, data []byte) bool {
	v, ok := core.Codec().Decode(data)
	if !ok {
		return false
	}
	memo.Shared().Adopt(key, v)
	if s.store != nil {
		jobs.MemoTier(s.store).Put(key, data)
	}
	return true
}

// forwardGenerate relays a generate request to the replica that owns
// its key, streaming the owner's response (whatever its status) back to
// the client. Returns false on transport failure — the caller then
// serves locally, which is always safe: routing is a cache-locality
// optimisation, not a correctness requirement.
func (s *Server) forwardGenerate(w http.ResponseWriter, r *http.Request, owner, id string, body []byte) bool {
	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, "http://"+owner+"/v1/generate", bytes.NewReader(body))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(cluster.ForwardHeader, "1")
	req.Header.Set("X-Request-Id", id)
	resp, err := s.peerClient.Do(req)
	if err != nil {
		s.run.Counter("serve.cluster.forward_failed").Inc()
		return false
	}
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}()
	served := resp.Header.Get(cluster.ServedByHeader)
	if served == "" {
		served = owner
	}
	w.Header().Set(cluster.ServedByHeader, served)
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
	s.run.Counter("serve.cluster.forwarded").Inc()
	return true
}
