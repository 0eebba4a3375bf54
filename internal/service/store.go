package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// ErrStoreMismatch is returned (wrapped) by Put when a key already holds
// a valid object whose bytes differ from the new data. Content
// addressing makes that impossible for deterministic executions, so a
// mismatch means a determinism violation (or memory corruption) and the
// server surfaces it as an integrity_error rather than picking a winner.
var ErrStoreMismatch = errors.New("service: store: bytes differ for existing key")

// StoreBackend is the content-addressed result store a Server reads and
// writes: the built-in *Store (disk or memory, below), behind the
// server's metrics decorator, which Server.Store returns. The contract
// every backend must honor:
//
//   - Get returns (data, true, nil) for a stored key, (nil, false, nil)
//     for a miss, and an error only for backend trouble;
//   - Put is first-write-wins: re-putting identical bytes is a no-op,
//     differing bytes return an error wrapping ErrStoreMismatch (the
//     integrity signal the fencing machinery relies on);
//   - Stats reports blobs written by this process and corruption events
//     detected;
//   - all methods are safe for concurrent use.
type StoreBackend interface {
	Get(key string) (data []byte, ok bool, err error)
	Put(key string, data []byte) error
	Stats() (puts, corruptions int)
}

// Store is the content-addressed result store: immutable JSON blobs
// keyed by the lowercase-hex SHA-256 of their job's canonical
// descriptor. Because results are pure functions of their descriptor,
// a key either misses or maps to exactly the bytes any re-execution
// would produce, so Put never overwrites and Get responses are
// bit-identical across process restarts.
//
// Blobs live under dir/objects/<key[:2]>/<key>.json, fanned out over
// 256 subdirectories so paper-scale campaigns don't degenerate into one
// giant directory. Each blob carries a sidecar <key>.sum holding the
// SHA-256 of the payload bytes; Get verifies it on every read and
// treats a mismatch as a miss after deleting the corrupt pair, so a
// torn write or bit-rotted object heals itself — the next submission of
// the spec recomputes and rewrites it (DESIGN.md §14). The sum is
// written durably before the object, so a crash between the two leaves
// an orphan sum (harmless: the object misses) rather than an unverified
// object. An object without its sidecar cannot be verified, so Get
// treats it as corrupt and the key misses until recomputed.
//
// Disk-backed stores hold nothing in process memory — blobs are small
// JSON documents and rereads are served by the OS page cache, so an
// always-on server's footprint stays flat no matter how many results it
// accumulates. A Store with dir "" keeps blobs in a process-lifetime
// map instead (tests, ephemeral servers), with the same verify-on-read
// behavior. All methods are safe for concurrent use.
type Store struct {
	dir   string
	hooks *Hooks

	mu         sync.RWMutex
	mem        map[string]memObject // memory-only mode (dir == "")
	puts       int
	corruption int
}

// memObject pairs payload bytes with their expected checksum so the
// memory-only store verifies reads exactly like the disk store (the
// chaos harness injects torn writes into both).
type memObject struct {
	data []byte
	sum  string
}

// OpenStore opens (creating if needed) the store rooted at dir, or a
// memory-only store when dir is empty.
func OpenStore(dir string) (*Store, error) {
	s := &Store{dir: dir}
	if dir == "" {
		s.mem = make(map[string]memObject)
	} else if err := os.MkdirAll(filepath.Join(dir, "objects"), 0o755); err != nil {
		return nil, fmt.Errorf("service: store: %w", err)
	}
	return s, nil
}

// validKey guards against path traversal: keys are exactly the 64
// lowercase hex characters contentKey produces.
func validKey(key string) bool {
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

func (s *Store) path(key string) string {
	return filepath.Join(s.dir, "objects", key[:2], key+".json")
}

func (s *Store) sumPath(key string) string {
	return filepath.Join(s.dir, "objects", key[:2], key+".sum")
}

// payloadSum is the sidecar checksum: lowercase-hex SHA-256 of the
// payload bytes (distinct from the key, which hashes the descriptor).
func payloadSum(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// Get returns the blob stored under key. ok is false when the key has
// never been stored — or when the stored object failed its checksum or
// has no sidecar to check, in which case the object is deleted first so
// the caller's recompute path (resubmitting the spec) can heal the store.
func (s *Store) Get(key string) (data []byte, ok bool, err error) {
	if !validKey(key) {
		return nil, false, nil
	}
	s.hooks.storeGet(key)
	if s.dir == "" {
		s.mu.Lock()
		defer s.mu.Unlock()
		obj, ok := s.mem[key]
		if !ok {
			return nil, false, nil
		}
		if payloadSum(obj.data) != obj.sum {
			delete(s.mem, key)
			s.corruption++
			return nil, false, nil
		}
		return obj.data, true, nil
	}
	data, err = os.ReadFile(s.path(key))
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("service: store: %w", err)
	}
	want, err := os.ReadFile(s.sumPath(key))
	if err != nil && !os.IsNotExist(err) {
		return nil, false, fmt.Errorf("service: store: %w", err)
	}
	if err != nil || strings.TrimSpace(string(want)) != payloadSum(data) {
		// Corrupt or without a sidecar: drop the pair so the key
		// misses until recomputed.
		os.Remove(s.path(key))
		os.Remove(s.sumPath(key))
		s.mu.Lock()
		s.corruption++
		s.mu.Unlock()
		return nil, false, nil
	}
	return data, true, nil
}

// Put stores the blob under key, durably (write to a temp file, fsync,
// rename) when the store is disk-backed. Storing an already-present key
// verifies instead of writing: matching bytes are a no-op
// (first-write-wins keeps every reader consistent), differing bytes
// return ErrStoreMismatch (wrapped), and a corrupt or sidecar-less
// existing object is replaced by the fresh one and its sidecar.
func (s *Store) Put(key string, data []byte) error {
	if !validKey(key) {
		return fmt.Errorf("service: store: invalid key %q", key)
	}
	sum := payloadSum(data)
	// The hook may hand back mangled bytes (a simulated torn write); the
	// sidecar sum always describes the true data, which is what lets Get
	// catch the damage.
	written := s.hooks.storePut(key, data)
	// Serialize writers: concurrent Puts of the same key are rare (only
	// racing identical jobs) and blobs are small, so one lock across the
	// disk write beats finer schemes.
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dir == "" {
		if old, exists := s.mem[key]; exists {
			if payloadSum(old.data) == old.sum {
				if !bytes.Equal(old.data, data) {
					return fmt.Errorf("%w %s", ErrStoreMismatch, key)
				}
				return nil
			}
			s.corruption++ // corrupt incumbent: fall through and heal
		}
		s.mem[key] = memObject{data: written, sum: sum}
		s.puts++
		return nil
	}
	path := s.path(key)
	if old, err := os.ReadFile(path); err == nil {
		want, err := os.ReadFile(s.sumPath(key))
		if err == nil && strings.TrimSpace(string(want)) == payloadSum(old) {
			if !bytes.Equal(old, data) {
				return fmt.Errorf("%w %s", ErrStoreMismatch, key)
			}
			return nil // already durable (this process or a previous one)
		}
		s.corruption++ // corrupt or sidecar-less incumbent: overwrite below
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("service: store: %w", err)
	}
	// Sum first, object second: a crash between the two leaves a
	// harmless orphan sum, never an unverifiable object.
	if err := s.writeFile(s.sumPath(key), []byte(sum+"\n")); err != nil {
		return err
	}
	if err := s.writeFile(path, written); err != nil {
		return err
	}
	s.puts++
	return nil
}

// writeFile writes data durably: temp file in the target directory,
// fsync, rename.
func (s *Store) writeFile(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp-")
	if err != nil {
		return fmt.Errorf("service: store: %w", err)
	}
	_, werr := tmp.Write(data)
	if werr == nil {
		werr = tmp.Sync()
	}
	if werr != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("service: store: %w", werr)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("service: store: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("service: store: %w", err)
	}
	return nil
}

// Stats reports the number of blobs written by this process and the
// number of checksum failures detected (corrupt objects dropped on read
// or replaced on write).
func (s *Store) Stats() (puts, corruptions int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.puts, s.corruption
}
