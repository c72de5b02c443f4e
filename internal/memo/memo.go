// Package memo is the content-addressed memo cache of the generation
// engine. Entries are keyed by canonical fingerprints of the inputs that
// determine them — the fault-instance list (names, BFE patterns and the
// conjunctive flag), the Test Pattern Graph (weight matrix plus start
// costs), and the candidate March test text — so two runs that pose the
// same sub-problem share the answer regardless of which fault list or CLI
// posed it. Cached values are pure functions of their key: a hit returns
// exactly the bytes a fresh computation would, which is what lets the
// engine guarantee byte-identical results warm or cold.
//
// Budgeted runs bypass the cache entirely (see internal/core): a budget is
// a statement about the resources this run may spend, and its degradation
// semantics must stay reproducible rather than depend on what some earlier
// run happened to leave behind.
package memo

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sync"
)

// DefaultCapacity bounds the shared cache. Entries are small (tour
// fragments, verdict booleans, coverage matrices for two-cell instances),
// so a few thousand of them stay well under typical server memory budgets.
const DefaultCapacity = 4096

// Cache is a bounded, concurrency-safe, least-recently-used map from
// fingerprint keys to immutable values. It lives in process memory only.
// The zero value is not usable; use New or the process-wide Shared cache.
type Cache struct {
	mu      sync.Mutex
	cap     int
	order   *list.List // front = most recently used; values are *entry
	entries map[string]*list.Element

	hits, misses, evictions uint64
}

type entry struct {
	key string
	val any
}

// New builds a cache holding at most capacity entries (capacity <= 0
// selects DefaultCapacity).
func New(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Cache{cap: capacity, order: list.New(), entries: map[string]*list.Element{}}
}

var shared = New(DefaultCapacity)

// Shared returns the process-wide cache used by default for unbudgeted
// generation runs.
func Shared() *Cache { return shared }

// Get returns the value stored under key, marking it most recently used.
func (c *Cache) Get(key string) (any, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*entry).val, true
}

// Put stores val under key, evicting the least recently used entry when
// the cache is full. Values must be treated as immutable by both sides:
// callers deep-copy anything they intend to mutate.
func (c *Cache) Put(key string, val any) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*entry).val = val
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&entry{key: key, val: val})
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*entry).key)
		c.evictions++
	}
}

// Len reports the number of live entries.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Stats reports cumulative hit/miss counts since the last Reset.
func (c *Cache) Stats() (hits, misses uint64) {
	if c == nil {
		return 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// CacheStats is a consistent counter snapshot of a cache: cumulative
// hits, misses and LRU evictions since the last Reset, plus the live
// entry count.
type CacheStats struct {
	Hits, Misses, Evictions uint64
	Entries                 int
}

// Snapshot returns the cache's counters and size under one lock
// acquisition, so the fields are mutually consistent even while other
// goroutines keep using the cache.
func (c *Cache) Snapshot() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Entries: c.order.Len()}
}

// Reset drops every entry and zeroes the hit, miss and eviction counters
// (cold-cache measurements, tests).
func (c *Cache) Reset() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.order.Init()
	c.entries = map[string]*list.Element{}
	c.hits, c.misses, c.evictions = 0, 0, 0
}

// Fingerprinter accumulates canonical content into a collision-resistant
// fingerprint. Writes are framed (length-prefixed), so concatenation
// ambiguity ("ab"+"c" vs "a"+"bc") cannot alias two different inputs.
type Fingerprinter struct {
	h [32]byte
	b []byte
}

// NewFingerprinter starts a fingerprint under a namespace tag (e.g.
// "tour", "verdict") so values of different kinds can never collide.
func NewFingerprinter(namespace string) *Fingerprinter {
	f := &Fingerprinter{}
	f.Str(namespace)
	return f
}

// Str frames and appends one string.
func (f *Fingerprinter) Str(s string) *Fingerprinter {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
	f.b = append(f.b, n[:]...)
	f.b = append(f.b, s...)
	return f
}

// Int appends one integer.
func (f *Fingerprinter) Int(v int) *Fingerprinter {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(int64(v)))
	f.b = append(f.b, n[:]...)
	return f
}

// Ints appends a framed integer slice.
func (f *Fingerprinter) Ints(vs []int) *Fingerprinter {
	f.Int(len(vs))
	for _, v := range vs {
		f.Int(v)
	}
	return f
}

// Bool appends one boolean.
func (f *Fingerprinter) Bool(v bool) *Fingerprinter {
	if v {
		return f.Int(1)
	}
	return f.Int(0)
}

// Key finalises the fingerprint as a hex SHA-256 digest.
func (f *Fingerprinter) Key() string {
	f.h = sha256.Sum256(f.b)
	return hex.EncodeToString(f.h[:])
}
