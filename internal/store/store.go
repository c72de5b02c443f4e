// Package store is the durable content-addressed store behind the async
// job subsystem: job records and finished results land here and survive
// process death. The write discipline is the classic crash-safe sequence
// — write to a temp file in the target directory, fsync the data,
// atomically rename into place, fsync the directory — so a reader can
// never observe a torn value: a key either resolves to complete bytes or
// does not exist. A crash mid-write leaves only a temp file behind, which
// Open sweeps away.
//
// Keys live in flat namespaces ("jobs", "results"); values are immutable
// byte slices, typically keyed by the content hashes of internal/memo,
// which is what makes a repeated submission a cache hit.
//
// Every write passes the internal/chaos failpoints (fsync error, torn
// write, rename failure, slow disk), so the fault-injection harness can
// sabotage exactly the syscalls a real disk would fail.
package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"marchgen/internal/chaos"
)

// ErrNotFound reports a key with no committed value.
var ErrNotFound = errors.New("store: key not found")

// tmpPrefix marks uncommitted temp files; Get ignores them and Open
// removes leftovers from crashed writes.
const tmpPrefix = ".tmp-"

// Store is a durable key/value store rooted at one directory, one
// subdirectory per namespace. Safe for concurrent use; writes to the
// same key serialise on the commit rename (last rename wins, each
// version complete).
type Store struct {
	root string

	mu   sync.Mutex
	seq  int
	dirs map[string]bool // namespaces known to exist and be fsynced
}

// Open prepares the store rooted at dir, creating it when absent and
// sweeping temp files left by crashed writes.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open root: %w", err)
	}
	s := &Store{root: dir, dirs: map[string]bool{}}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: scan root: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		ns, err := os.ReadDir(filepath.Join(dir, e.Name()))
		if err != nil {
			continue
		}
		for _, f := range ns {
			if strings.HasPrefix(f.Name(), tmpPrefix) {
				_ = os.Remove(filepath.Join(dir, e.Name(), f.Name()))
			}
		}
	}
	return s, nil
}

// Root returns the store's root directory.
func (s *Store) Root() string { return s.root }

// checkKey rejects keys that would escape the namespace directory. Keys
// are content hashes and job ids, so anything outside the safe set is a
// caller bug.
func checkKey(key string) error {
	if key == "" || strings.ContainsAny(key, "/\\") || strings.HasPrefix(key, ".") {
		return fmt.Errorf("store: invalid key %q", key)
	}
	return nil
}

// dir ensures the namespace directory exists (and is itself durable:
// the first use fsyncs the root so the namespace survives a crash).
func (s *Store) dir(ns string) (string, error) {
	if err := checkKey(ns); err != nil {
		return "", err
	}
	d := filepath.Join(s.root, ns)
	s.mu.Lock()
	known := s.dirs[ns]
	s.mu.Unlock()
	if known {
		return d, nil
	}
	if err := os.MkdirAll(d, 0o755); err != nil {
		return "", fmt.Errorf("store: namespace %s: %w", ns, err)
	}
	if err := syncDir(s.root); err != nil {
		return "", err
	}
	s.mu.Lock()
	s.dirs[ns] = true
	s.mu.Unlock()
	return d, nil
}

// Put durably commits data under ns/key: temp file, data fsync, atomic
// rename, directory fsync. On any failure the committed state is
// untouched — a previous value for the key, or its absence, stays
// intact, and the reader-visible store never holds torn bytes.
func (s *Store) Put(ns, key string, data []byte) error {
	if err := checkKey(key); err != nil {
		return err
	}
	d, err := s.dir(ns)
	if err != nil {
		return err
	}
	pts := chaos.Active()
	pts.Sleep()
	s.mu.Lock()
	s.seq++
	tmp := filepath.Join(d, fmt.Sprintf("%s%d-%s", tmpPrefix, s.seq, key))
	s.mu.Unlock()
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("store: create temp: %w", err)
	}
	// A torn write leaves half the bytes in the temp file and errors out
	// — the same on-disk state a crash mid-write produces. The temp file
	// is deliberately left behind; Open's sweep handles it, and Get must
	// never see it.
	if ierr := pts.Fail(chaos.PointPartial); ierr != nil {
		_, _ = f.Write(data[:len(data)/2])
		_ = f.Close()
		return fmt.Errorf("store: write %s/%s: %w", ns, key, ierr)
	}
	if _, err := f.Write(data); err != nil {
		_ = f.Close()
		_ = os.Remove(tmp)
		return fmt.Errorf("store: write %s/%s: %w", ns, key, err)
	}
	if ierr := pts.Fail(chaos.PointFsync); ierr != nil {
		_ = f.Close()
		_ = os.Remove(tmp)
		return fmt.Errorf("store: fsync %s/%s: %w", ns, key, ierr)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		_ = os.Remove(tmp)
		return fmt.Errorf("store: fsync %s/%s: %w", ns, key, err)
	}
	if err := f.Close(); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("store: close %s/%s: %w", ns, key, err)
	}
	if ierr := pts.Fail(chaos.PointRename); ierr != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("store: commit %s/%s: %w", ns, key, ierr)
	}
	if err := os.Rename(tmp, filepath.Join(d, key)); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("store: commit %s/%s: %w", ns, key, err)
	}
	return syncDir(d)
}

// Get returns the committed bytes under ns/key, or ErrNotFound.
func (s *Store) Get(ns, key string) ([]byte, error) {
	if err := checkKey(ns); err != nil {
		return nil, err
	}
	if err := checkKey(key); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(s.root, ns, key))
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("store: %s/%s: %w", ns, key, ErrNotFound)
	}
	if err != nil {
		return nil, fmt.Errorf("store: read %s/%s: %w", ns, key, err)
	}
	return data, nil
}

// Has reports whether ns/key holds a committed value.
func (s *Store) Has(ns, key string) bool {
	if checkKey(ns) != nil || checkKey(key) != nil {
		return false
	}
	_, err := os.Stat(filepath.Join(s.root, ns, key))
	return err == nil
}

// Delete removes ns/key; deleting an absent key is not an error.
func (s *Store) Delete(ns, key string) error {
	if err := checkKey(ns); err != nil {
		return err
	}
	if err := checkKey(key); err != nil {
		return err
	}
	err := os.Remove(filepath.Join(s.root, ns, key))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("store: delete %s/%s: %w", ns, key, err)
	}
	return nil
}

// List returns the committed keys of a namespace in sorted order (an
// absent namespace lists empty).
func (s *Store) List(ns string) ([]string, error) {
	if err := checkKey(ns); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(filepath.Join(s.root, ns))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: list %s: %w", ns, err)
	}
	var keys []string
	for _, e := range entries {
		if e.IsDir() || strings.HasPrefix(e.Name(), tmpPrefix) {
			continue
		}
		keys = append(keys, e.Name())
	}
	sort.Strings(keys)
	return keys, nil
}

// syncDir fsyncs a directory so a just-committed rename survives power
// loss. Some filesystems reject directory fsync; those errors are
// swallowed (the rename itself is still atomic).
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer f.Close()
	_ = f.Sync()
	return nil
}
