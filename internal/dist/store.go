package dist

// The worker's checkpoint store. Checkpoints are content-addressed by
// job identity (Job.CkptKey) and held as sealed STMSCKPT containers in
// memory (latest per key: each cadence overwrites the previous one),
// mirrored to <dir>/<key>.stmsckpt when a directory is configured. A
// checkpoint is never trusted on arrival: every receiving tier verifies
// the container's header and checksum and discards corruption, and the
// run that resumes from it checks its identity (sim.CheckResume) — a
// bad checkpoint costs a cold restart, never a wrong result.

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"stms/internal/ckpt"
)

// ckptFileSuffix names on-disk checkpoints: <store dir>/<job hash>.stmsckpt.
const ckptFileSuffix = ".stmsckpt"

// Store is a worker's checkpoint store. The zero value is not usable;
// construct with NewStore. All methods are safe for concurrent use.
type Store struct {
	mu    sync.Mutex
	dir   string            // "" = memory-only store
	ckpts map[string][]byte // sealed STMSCKPT containers, latest per job key
	stats StoreStats
}

// StoreStats counts checkpoint store activity.
type StoreStats struct {
	CkptPuts   uint64 // checkpoints accepted via PutCkpt
	CkptServes uint64 // GetCkpt hits (memory or disk)
	CkptSkips  uint64 // corrupt checkpoints discarded instead of served
}

// NewStore creates a checkpoint store over the given disk directory;
// dir == "" keeps checkpoints in memory only. The directory is created
// on demand.
func NewStore(dir string) *Store {
	return &Store{dir: dir, ckpts: make(map[string][]byte)}
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// ckptPath maps a checkpoint address to its disk-tier file.
func (s *Store) ckptPath(key string) string {
	return filepath.Join(s.dir, key+ckptFileSuffix)
}

// GetCkpt returns the sealed checkpoint container addressed by key,
// from the memory side-table or the disk tier. Corrupt disk files are
// removed and report a miss.
func (s *Store) GetCkpt(key string) ([]byte, bool) {
	s.mu.Lock()
	if data, ok := s.ckpts[key]; ok {
		s.stats.CkptServes++
		s.mu.Unlock()
		return data, true
	}
	dir := s.dir
	s.mu.Unlock()
	if dir == "" {
		return nil, false
	}
	data, err := os.ReadFile(s.ckptPath(key))
	if err != nil {
		return nil, false
	}
	if _, err := ckpt.Open(data); err != nil {
		os.Remove(s.ckptPath(key))
		s.mu.Lock()
		s.stats.CkptSkips++
		s.mu.Unlock()
		return nil, false
	}
	s.mu.Lock()
	s.ckpts[key] = data
	s.stats.CkptServes++
	s.mu.Unlock()
	return data, true
}

// PutCkpt admits a sealed checkpoint container under key, replacing
// any previous checkpoint at that address (a newer cadence of the same
// job). The container must verify; corrupt data is rejected. The disk
// write is atomic (temp + fsync + rename + dirent fsync) and
// best-effort — a full disk degrades the tier to memory.
func (s *Store) PutCkpt(key string, data []byte) error {
	if _, err := ckpt.Open(data); err != nil {
		s.mu.Lock()
		s.stats.CkptSkips++
		s.mu.Unlock()
		return fmt.Errorf("dist: rejecting corrupt checkpoint %.12s…: %w", key, err)
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	s.mu.Lock()
	s.ckpts[key] = cp
	s.stats.CkptPuts++
	dir := s.dir
	s.mu.Unlock()
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err == nil {
			ckpt.WriteFile(s.ckptPath(key), cp)
		}
	}
	return nil
}

// CkptCount returns how many checkpoints the store holds (memory plus
// disk-only files).
func (s *Store) CkptCount() int {
	return len(s.CkptKeys())
}

// CkptKeys lists the checkpoint addresses known to the store, for
// nearest-match suggestions on unknown keys; order is unspecified.
func (s *Store) CkptKeys() []string {
	s.mu.Lock()
	keys := make([]string, 0, len(s.ckpts))
	seen := make(map[string]bool, len(s.ckpts))
	for k := range s.ckpts {
		keys = append(keys, k)
		seen[k] = true
	}
	dir := s.dir
	s.mu.Unlock()
	if dir != "" {
		if names, err := os.ReadDir(dir); err == nil {
			for _, de := range names {
				if k, ok := strings.CutSuffix(de.Name(), ckptFileSuffix); ok && !seen[k] {
					keys = append(keys, k)
				}
			}
		}
	}
	return keys
}
