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

// DiskTier is a durable second level underneath the in-memory LRU: a
// miss falls through to it and a hit is promoted back into memory, so
// entries survive both LRU eviction and process restarts. Implementations
// must be safe for concurrent use; internal/store's namespaces are the
// canonical one. Errors are absorbed as misses — durability is an
// optimisation here, never a correctness dependency.
type DiskTier interface {
	// Get returns the bytes committed under key, or false.
	Get(key string) ([]byte, bool)
	// Put durably commits data under key (best-effort).
	Put(key string, data []byte)
}

// Codec translates cache values to and from persistent bytes for a
// DiskTier. Encode reports false for value kinds that are not
// persistable (those simply stay memory-only); Decode reports false for
// bytes it does not recognise (treated as a miss). internal/core
// provides the codec covering the engine's tour fragments and verdicts.
type Codec interface {
	Encode(val any) ([]byte, bool)
	Decode(data []byte) (any, bool)
}

// Cache is a bounded, concurrency-safe, least-recently-used map from
// fingerprint keys to immutable values, with an optional durable second
// tier (AttachDisk). The zero value is not usable; use New or the
// process-wide Shared cache.
type Cache struct {
	mu      sync.Mutex
	cap     int
	order   *list.List // front = most recently used; values are *entry
	entries map[string]*list.Element

	disk  DiskTier
	codec Codec

	hits, misses, evictions, diskHits uint64
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

// AttachDisk installs a durable second tier and its codec: from now on
// misses fall through to disk (decoded hits are promoted into memory)
// and persistable Puts are written through. Attaching replaces any
// previous tier; DetachDisk removes it. The in-memory contents are
// untouched either way.
func (c *Cache) AttachDisk(d DiskTier, codec Codec) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.disk, c.codec = d, codec
	c.mu.Unlock()
}

// DetachDisk removes the durable tier (tests, shutdown).
func (c *Cache) DetachDisk() { c.AttachDisk(nil, nil) }

// Get returns the value stored under key, marking it most recently used.
// With a disk tier attached, a memory miss consults the tier and
// promotes a decoded hit.
func (c *Cache) Get(key string) (any, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	el, ok := c.entries[key]
	if ok {
		c.hits++
		c.order.MoveToFront(el)
		val := el.Value.(*entry).val
		c.mu.Unlock()
		return val, true
	}
	c.misses++
	disk, codec := c.disk, c.codec
	c.mu.Unlock()
	if disk == nil || codec == nil {
		return nil, false
	}
	// The tier read happens outside the lock — it may fsync-era-slow —
	// and the promote below re-takes it. Two goroutines racing the same
	// key promote the same immutable value twice, harmlessly.
	data, ok := disk.Get(key)
	if !ok {
		return nil, false
	}
	val, ok := codec.Decode(data)
	if !ok {
		return nil, false
	}
	c.mu.Lock()
	c.diskHits++
	c.mu.Unlock()
	c.put(key, val, false)
	return val, true
}

// Put stores val under key, evicting the least recently used entry when
// the cache is full. Values must be treated as immutable by both sides:
// callers deep-copy anything they intend to mutate. With a disk tier
// attached, persistable values are written through.
func (c *Cache) Put(key string, val any) { c.put(key, val, true) }

func (c *Cache) put(key string, val any, writeThrough bool) {
	if c == nil {
		return
	}
	c.mu.Lock()
	disk, codec := c.disk, c.codec
	if el, ok := c.entries[key]; ok {
		el.Value.(*entry).val = val
		c.order.MoveToFront(el)
	} else {
		c.entries[key] = c.order.PushFront(&entry{key: key, val: val})
		for c.order.Len() > c.cap {
			oldest := c.order.Back()
			c.order.Remove(oldest)
			delete(c.entries, oldest.Value.(*entry).key)
			c.evictions++
		}
	}
	c.mu.Unlock()
	if writeThrough && disk != nil && codec != nil {
		// Outside the lock: a durable tier fsyncs, and the engine's hot
		// paths must not serialise on that.
		if data, ok := codec.Encode(val); ok {
			disk.Put(key, data)
		}
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
// entry count. DiskHits counts memory misses served by the durable tier
// (every disk hit is also counted as a memory miss).
type CacheStats struct {
	Hits, Misses, Evictions uint64
	DiskHits                uint64
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
	return CacheStats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions, DiskHits: c.diskHits, Entries: c.order.Len()}
}

// Reset drops every in-memory entry and zeroes the hit/miss counters
// (cold-cache measurements, tests). An attached disk tier is left both
// attached and populated: Reset empties memory, not the durable layer.
func (c *Cache) Reset() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.order.Init()
	c.entries = map[string]*list.Element{}
	c.hits, c.misses, c.evictions, c.diskHits = 0, 0, 0, 0
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
