package dist

// The worker's checkpoint store. Checkpoints are content-addressed by
// run identity (sim.Identity.Key) and held as sealed STMSCKPT
// containers in memory (latest per key: each cadence overwrites the
// previous one; maxResidentBytes bounds the total), mirrored to
// <dir>/<key>.stmsckpt when a directory is configured. A checkpoint is
// never trusted on arrival: every receiving tier verifies the
// container's header and checksum and discards corruption, and the run
// that resumes from it checks its identity (sim.CheckResume) — a bad
// checkpoint costs a cold restart, never a wrong result.

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

// maxResidentBytes bounds the containers the memory side-table holds.
// A put or a disk read that takes it over the bound drops the least
// recently written or served checkpoints from memory; the disk tier,
// when configured, still serves them. The newest checkpoint always
// stays, even alone above the bound.
const maxResidentBytes = 256 << 20

// Store is a worker's checkpoint store. The zero value is not usable;
// construct with NewStore. All methods are safe for concurrent use.
type Store struct {
	mu    sync.Mutex
	dir   string               // "" = memory-only store
	ckpts map[string]*resident // latest sealed STMSCKPT container per job key
	limit int                  // resident byte bound (maxResidentBytes)
	clock uint64               // last use stamp handed out
	stats StoreStats
}

// resident is one checkpoint held in memory, stamped with its last use.
type resident struct {
	data []byte
	used uint64
}

// StoreStats counts checkpoint store activity.
type StoreStats struct {
	CkptPuts      uint64 // checkpoints accepted via PutCkpt
	CkptServes    uint64 // GetCkpt hits (memory or disk)
	CkptSkips     uint64 // corrupt checkpoints discarded instead of served
	CkptEvictions uint64 // checkpoints dropped from memory to stay in the bound
	ResidentBytes uint64 // bytes of checkpoints held in memory
}

// NewStore creates a checkpoint store over the given disk directory;
// dir == "" keeps checkpoints in memory only. The directory is created
// on demand.
func NewStore(dir string) *Store {
	return &Store{dir: dir, ckpts: make(map[string]*resident), limit: maxResidentBytes}
}

// keep makes data the resident checkpoint at key, then drops the least
// recently used others while the side-table is over its bound. The
// caller holds s.mu.
func (s *Store) keep(key string, data []byte) {
	if old := s.ckpts[key]; old != nil {
		s.stats.ResidentBytes -= uint64(len(old.data))
	}
	s.clock++
	s.ckpts[key] = &resident{data, s.clock}
	s.stats.ResidentBytes += uint64(len(data))
	for s.stats.ResidentBytes > uint64(s.limit) && len(s.ckpts) > 1 {
		victim := ""
		for k, r := range s.ckpts {
			if k != key && (victim == "" || r.used < s.ckpts[victim].used) {
				victim = k
			}
		}
		s.stats.ResidentBytes -= uint64(len(s.ckpts[victim].data))
		s.stats.CkptEvictions++
		delete(s.ckpts, victim)
	}
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
	if r, ok := s.ckpts[key]; ok {
		s.clock++
		r.used = s.clock
		s.stats.CkptServes++
		s.mu.Unlock()
		return r.data, true
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
	s.keep(key, data)
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
	s.keep(key, cp)
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

// CkptKeys lists the checkpoint addresses known to the store (memory
// plus disk-only files), for nearest-match suggestions on unknown keys
// and the health document's count; order is unspecified.
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
