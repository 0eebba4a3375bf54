package service

import (
	"bytes"
	"errors"
	"os"
	"strings"
	"testing"
)

func testKey(fill byte) string {
	return strings.Repeat(string([]byte{fill}), 64)
}

func TestStoreRoundTrip(t *testing.T) {
	for _, dir := range []string{"", t.TempDir()} {
		store, err := OpenStore(dir)
		if err != nil {
			t.Fatalf("OpenStore(%q): %v", dir, err)
		}
		key := testKey('a')
		if _, ok, _ := store.Get(key); ok {
			t.Fatal("empty store claims to hold a key")
		}
		data := []byte(`{"x":1}`)
		if err := store.Put(key, data); err != nil {
			t.Fatalf("Put: %v", err)
		}
		got, ok, err := store.Get(key)
		if err != nil || !ok || !bytes.Equal(got, data) {
			t.Fatalf("Get = %q, %v, %v; want stored bytes", got, ok, err)
		}
		// First-write-wins: re-putting the same bytes is a no-op, and
		// differing bytes for an existing key are a loud mismatch (content
		// addressing says they can only come from broken determinism).
		if err := store.Put(key, data); err != nil {
			t.Fatalf("idempotent Put: %v", err)
		}
		if err := store.Put(key, []byte("other")); !errors.Is(err, ErrStoreMismatch) {
			t.Fatalf("conflicting Put = %v, want ErrStoreMismatch", err)
		}
		got, _, _ = store.Get(key)
		if !bytes.Equal(got, data) {
			t.Fatalf("conflicting Put overwrote: %q", got)
		}
		if puts, corruptions := store.Stats(); puts != 1 || corruptions != 0 {
			t.Fatalf("puts, corruptions = %d, %d, want 1, 0", puts, corruptions)
		}
	}
}

func TestStorePersistence(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	key := testKey('b')
	data := []byte(`{"y":2}`)
	if err := store.Put(key, data); err != nil {
		t.Fatalf("Put: %v", err)
	}

	reopened, err := OpenStore(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	got, ok, err := reopened.Get(key)
	if err != nil || !ok || !bytes.Equal(got, data) {
		t.Fatalf("reopened Get = %q, %v, %v; want persisted bytes", got, ok, err)
	}
}

// TestStoreCorruptionHeals writes garbage directly into objects/ (the
// on-disk equivalent of a torn write or bit rot) and checks the
// verify-on-read path: the corrupt object is detected, deleted, and the
// key misses until a fresh Put recomputes it — after which reads serve
// the true bytes again.
func TestStoreCorruptionHeals(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	key := testKey('c')
	data := []byte(`{"z":3}`)
	if err := store.Put(key, data); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := os.WriteFile(store.path(key), []byte("garbage!"), 0o644); err != nil {
		t.Fatalf("corrupting object: %v", err)
	}
	if _, ok, err := store.Get(key); ok || err != nil {
		t.Fatalf("Get(corrupt) = ok=%v err=%v, want a clean miss", ok, err)
	}
	if _, err := os.Stat(store.path(key)); !os.IsNotExist(err) {
		t.Fatal("corrupt object was not deleted")
	}
	if _, corruptions := store.Stats(); corruptions != 1 {
		t.Fatalf("corruptions = %d, want 1", corruptions)
	}
	// The miss is what heals: the caller recomputes and re-puts.
	if err := store.Put(key, data); err != nil {
		t.Fatalf("healing Put: %v", err)
	}
	got, ok, err := store.Get(key)
	if err != nil || !ok || !bytes.Equal(got, data) {
		t.Fatalf("healed Get = %q, %v, %v; want original bytes", got, ok, err)
	}

	// An object without its sidecar sum cannot be verified: it misses
	// like a corrupt one, and a Put of the same bytes restores it with
	// its sidecar — also when the Put meets the sidecar-less object
	// before any Get has dropped it.
	for _, getFirst := range []bool{true, false} {
		legacy := testKey('d')
		if !getFirst {
			legacy = testKey('f')
		}
		if err := os.MkdirAll(store.dir+"/objects/"+legacy[:2], 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(store.path(legacy), []byte(`{"old":1}`), 0o644); err != nil {
			t.Fatal(err)
		}
		if getFirst {
			if got, ok, err := store.Get(legacy); err != nil || ok {
				t.Fatalf("sidecar-less Get = %q, %v, %v; want a miss", got, ok, err)
			}
		}
		if err := store.Put(legacy, []byte(`{"old":1}`)); err != nil {
			t.Fatalf("healing Put: %v", err)
		}
		if got, ok, err := store.Get(legacy); err != nil || !ok || string(got) != `{"old":1}` {
			t.Fatalf("healed Get (get first %v) = %q, %v, %v; want the stored bytes", getFirst, got, ok, err)
		}
	}
}

// TestStoreMemCorruption covers the same detect-and-heal contract in
// memory-only mode, using a torn-write StorePut hook as the corruptor.
func TestStoreMemCorruption(t *testing.T) {
	torn := true
	store, err := OpenStore("")
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	store.hooks = &Hooks{StorePut: func(key string, data []byte) []byte {
		if torn {
			return data[:len(data)/2]
		}
		return data
	}}
	key := testKey('e')
	data := []byte(`{"w":4}`)
	if err := store.Put(key, data); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if _, ok, _ := store.Get(key); ok {
		t.Fatal("torn write served as a hit")
	}
	torn = false
	if err := store.Put(key, data); err != nil {
		t.Fatalf("healing Put: %v", err)
	}
	got, ok, err := store.Get(key)
	if err != nil || !ok || !bytes.Equal(got, data) {
		t.Fatalf("healed Get = %q, %v, %v", got, ok, err)
	}
	if _, corruptions := store.Stats(); corruptions == 0 {
		t.Fatal("corruption went uncounted")
	}
}

func TestStoreKeyValidation(t *testing.T) {
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	bad := []string{
		"", "short", strings.Repeat("A", 64), // upper-case hex is invalid
		strings.Repeat("a", 63) + "/",
		"../../../../etc/passwd" + strings.Repeat("a", 42),
	}
	for _, key := range bad {
		if err := store.Put(key, []byte("x")); err == nil {
			t.Errorf("Put(%q) accepted an invalid key", key)
		}
		if _, ok, err := store.Get(key); ok || err != nil {
			t.Errorf("Get(%q) = %v, %v; want miss without error", key, ok, err)
		}
	}
}
