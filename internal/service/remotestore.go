package service

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
)

// RemoteStore is a StoreBackend that proxies through a coordinator's
// HTTP API (GET and PUT /v1/results/{key}), so a worker node — or a
// secondary coordinator — reads and writes the fleet's single
// content-addressed store instead of keeping its own. A PUT whose bytes
// differ from the stored object comes back as 409 with code
// "store_mismatch" and is surfaced as ErrStoreMismatch, preserving the
// integrity semantics of the local store across the network.
//
// The proxy trusts its coordinator (keys are not re-derived from the
// payload — they can't be, a key hashes the job descriptor, not the
// bytes); see API.md for the trusted-fleet caveat.
type RemoteStore struct {
	base string
	hc   *http.Client

	mu   sync.Mutex
	puts int
}

// NewRemoteStore returns a remote store rooted at the coordinator base
// URL (e.g. "http://127.0.0.1:8642"). hc nil means http.DefaultClient.
func NewRemoteStore(base string, hc *http.Client) *RemoteStore {
	return &RemoteStore{base: strings.TrimRight(base, "/"), hc: hc}
}

func (s *RemoteStore) client() *http.Client {
	if s.hc != nil {
		return s.hc
	}
	return http.DefaultClient
}

// Get fetches the blob under key from the coordinator; a 404 is a miss,
// not an error.
func (s *RemoteStore) Get(key string) ([]byte, bool, error) {
	if !validKey(key) {
		return nil, false, nil
	}
	resp, err := s.client().Get(s.base + "/v1/results/" + url.PathEscape(key))
	if err != nil {
		return nil, false, fmt.Errorf("service: remote store: %w", err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, false, fmt.Errorf("service: remote store: %w", err)
		}
		return data, true, nil
	case http.StatusNotFound:
		return nil, false, nil
	}
	return nil, false, fmt.Errorf("service: remote store: GET %s: %w", key[:8], apiErr(resp))
}

// Put writes the blob through the coordinator. A 409 means the
// coordinator already holds different bytes under the key and maps to
// ErrStoreMismatch, exactly like a local first-write-wins conflict.
func (s *RemoteStore) Put(key string, data []byte) error {
	if !validKey(key) {
		return fmt.Errorf("service: remote store: invalid key %q", key)
	}
	req, err := http.NewRequest(http.MethodPut,
		s.base+"/v1/results/"+url.PathEscape(key), bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("service: remote store: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client().Do(req)
	if err != nil {
		return fmt.Errorf("service: remote store: %w", err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK, http.StatusNoContent:
		s.mu.Lock()
		s.puts++
		s.mu.Unlock()
		return nil
	case http.StatusConflict:
		return fmt.Errorf("%w %s (remote)", ErrStoreMismatch, key)
	}
	return fmt.Errorf("service: remote store: PUT %s: %w", key[:8], apiErr(resp))
}

// Stats reports blobs this process wrote through the proxy; corruption
// detection happens coordinator-side, so it is always 0 here.
func (s *RemoteStore) Stats() (puts, corruptions int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.puts, 0
}
