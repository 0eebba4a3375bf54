package sweep

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
)

// manifestVersion guards the on-disk format.
const manifestVersion = 1

// manifestHeader is the first line of a manifest file. It pins the
// campaign identity so a manifest can never silently resume a different
// campaign: the grid hash covers every point key in canonical order, and
// seed/shots cover the execution parameters that feed the records. An
// adaptive campaign also pins its resolved budget knobs; they are
// omitted for a fixed campaign, so fixed manifests written before the
// knobs were pinned still resume.
type manifestHeader struct {
	Version   int     `json:"version"`
	Seed      uint64  `json:"seed"`
	Shots     int     `json:"shots"`
	Points    int     `json:"points"`
	GridHash  uint64  `json:"grid_hash"`
	TargetRCI float64 `json:"target_rci,omitempty"`
	MaxShots  int     `json:"max_shots,omitempty"`
}

// String renders the identity for mismatch errors.
func (h manifestHeader) String() string {
	s := fmt.Sprintf("seed=%d shots=%d points=%d grid=%#x", h.Seed, h.Shots, h.Points, h.GridHash)
	if h.TargetRCI == 0 {
		return s + " fixed"
	}
	return s + fmt.Sprintf(" adaptive target_rci=%g max_shots=%d", h.TargetRCI, h.MaxShots)
}

// GridHash fingerprints a point list: FNV-1a over every canonical point
// key in expansion order.
func GridHash(pts []Point) uint64 {
	h := fnv.New64a()
	for _, pt := range pts {
		h.Write([]byte(pt.Key()))
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

// Manifest journals finished point keys so an interrupted campaign can be
// rerun without recomputing completed points. The file format is one JSON
// header line followed by one completed point key per line, appended (and
// synced) as each point finishes. A line truncated by an unclean shutdown
// matches no point key and is ignored, so the worst case after a crash is
// re-running the point whose completion record was cut off.
type Manifest struct {
	f    *os.File
	done map[string]bool
}

// OpenManifest creates the manifest at path, or resumes the one already
// there. Resuming verifies the stored campaign identity (seed, shots,
// grid hash and, for an adaptive campaign, its resolved target and cap)
// and fails rather than mixing records from two different campaigns in
// one output directory. cfg is resolved with WithDefaults, as Run does.
func OpenManifest(path string, cfg Config, pts []Point) (*Manifest, error) {
	cfg = cfg.WithDefaults()
	want := manifestHeader{
		Version: manifestVersion, Seed: cfg.Seed, Shots: cfg.Shots,
		Points: len(pts), GridHash: GridHash(pts),
	}
	if cfg.Adaptive != nil {
		a := cfg.Adaptive.WithDefaults()
		want.TargetRCI, want.MaxShots = a.TargetRCI, a.MaxShots
	}
	data, err := os.ReadFile(path)
	switch {
	case os.IsNotExist(err) || (err == nil && len(data) == 0):
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		hdr, err := json.Marshal(want)
		if err != nil {
			f.Close()
			return nil, err
		}
		if _, err := f.Write(append(hdr, '\n')); err != nil {
			f.Close()
			return nil, err
		}
		return &Manifest{f: f, done: make(map[string]bool)}, nil
	case err != nil:
		return nil, err
	}

	sc := bufio.NewScanner(strings.NewReader(string(data)))
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	if !sc.Scan() {
		return nil, fmt.Errorf("manifest %s: missing header", path)
	}
	var got manifestHeader
	if err := json.Unmarshal(sc.Bytes(), &got); err != nil {
		return nil, fmt.Errorf("manifest %s: bad header: %w", path, err)
	}
	if got != want {
		return nil, fmt.Errorf("manifest %s belongs to a different campaign "+
			"(have %v, want %v); use a fresh output directory", path, got, want)
	}
	done := make(map[string]bool)
	for sc.Scan() {
		if line := strings.TrimRight(sc.Text(), "\r"); line != "" {
			done[line] = true
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &Manifest{f: f, done: done}, nil
}

// Done reports whether the point key has already completed.
func (m *Manifest) Done(key string) bool { return m.done[key] }

// NumDone returns the number of completed points on record.
func (m *Manifest) NumDone() int { return len(m.done) }

// MarkDone journals a completed point, syncing the line to disk so the
// record survives an immediately following crash.
func (m *Manifest) MarkDone(key string) error {
	if m.done[key] {
		return nil
	}
	if _, err := m.f.Write([]byte(key + "\n")); err != nil {
		return err
	}
	if err := m.f.Sync(); err != nil {
		return err
	}
	m.done[key] = true
	return nil
}

// Close releases the underlying file.
func (m *Manifest) Close() error { return m.f.Close() }
