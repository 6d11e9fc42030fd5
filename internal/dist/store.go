package dist

// The content-addressed tape store of worker daemons (in-process lab
// sessions generate their traces live and hold no tapes), two-tier:
//
//	memory LRU (bounded by bytes, singleflight-guarded)
//	  → on-disk STMSTAPE directory (files named by trace-identity hash)
//	    → optional fetch hook (a worker's peers)
//	      → deterministic rebuild
//
// Tapes are addressed by the content hash of their trace identity
// (TapeKey), and every tier that receives a tape — a disk load, a peer
// fetch, a PUT — re-derives the address from the tape's own identity
// and rejects mismatches, so a truncated or corrupted file is rebuilt
// rather than served.

import (
	"container/list"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"stms/internal/ckpt"
	"stms/internal/trace"
)

// tapeFileSuffix names on-disk tapes: <store dir>/<identity hash>.stmstape.
const tapeFileSuffix = ".stmstape"

// ckptFileSuffix names on-disk checkpoints: <store dir>/<job hash>.stmsckpt.
const ckptFileSuffix = ".stmsckpt"

// Store is the two-tier tape store. The zero value is not usable;
// construct with NewStore. All methods are safe for concurrent use.
type Store struct {
	mu      sync.Mutex
	max     int64 // memory-tier byte budget
	bytes   int64
	entries map[string]*storeEntry
	lru     *list.List        // front = most recently used
	dir     string            // "" = memory-only store
	ckpts   map[string][]byte // sealed STMSCKPT containers, latest per job key
	stats   StoreStats
}

type storeEntry struct {
	key   string
	ready chan struct{} // closed when tape/src/err are set
	tape  *trace.Tape
	src   TapeSource
	err   error
	elem  *list.Element
}

// StoreStats counts store activity. A "hit" is a GetOrBuild served by
// the memory tier, including joining an in-flight resolution; the
// remaining fields account the disk and peer tiers.
type StoreStats struct {
	Hits      uint64 // GetOrBuild served by the memory tier
	Misses    uint64 // GetOrBuild that had to resolve the tape
	Builds    uint64 // resolutions that built (including failed builds)
	Evictions uint64 // tapes dropped by the memory byte budget
	DiskHits  uint64 // resolutions served by the disk tier
	PeerHits  uint64 // resolutions served by the fetch hook
	DiskSkips uint64 // unreadable/mismatched disk files (rebuilt instead)
	Puts      uint64 // tapes accepted via Put
	ServeMem  uint64 // Get served from memory (tape serving, not jobs)
	ServeDisk uint64 // Get served from disk

	CkptPuts   uint64 // checkpoints accepted via PutCkpt
	CkptServes uint64 // GetCkpt hits (memory or disk)
	CkptSkips  uint64 // corrupt checkpoints discarded instead of served

	BytesInUse int64         // memory-tier footprint
	BuildTime  time.Duration // cumulative build wall time
	FetchTime  time.Duration // cumulative disk-read + peer-fetch wall time
}

// NewStore creates a store with the given memory budget and disk
// directory; dir == "" disables the disk tier. The directory is
// created on demand.
func NewStore(memBytes int64, dir string) *Store {
	return &Store{
		max:     memBytes,
		entries: make(map[string]*storeEntry),
		lru:     list.New(),
		dir:     dir,
		ckpts:   make(map[string][]byte),
	}
}

// Dir returns the disk-tier directory ("" when disabled).
func (s *Store) Dir() string { return s.dir }

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.BytesInUse = s.bytes
	return st
}

// Len returns the number of tapes resident in the memory tier
// (including in-flight resolutions).
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Keys lists the addresses known to the store: the memory tier plus
// the disk directory. Used for nearest-match suggestions on unknown
// keys; order is unspecified.
func (s *Store) Keys() []string {
	s.mu.Lock()
	keys := make([]string, 0, len(s.entries))
	seen := make(map[string]bool, len(s.entries))
	for k := range s.entries {
		keys = append(keys, k)
		seen[k] = true
	}
	dir := s.dir
	s.mu.Unlock()
	if dir != "" {
		if names, err := os.ReadDir(dir); err == nil {
			for _, de := range names {
				if k, ok := strings.CutSuffix(de.Name(), tapeFileSuffix); ok && !seen[k] {
					keys = append(keys, k)
				}
			}
		}
	}
	return keys
}

// GetOrBuild returns the tape addressed by key, resolving a memory
// miss through the lower tiers in order: disk, the fetch hook (nil to
// skip; a worker's peer lookup), then a deterministic build. The
// resolution runs at most once per key however many callers arrive
// (singleflight); waiters honour ctx, the resolver itself runs to
// completion so siblings are never abandoned mid-build. The returned
// source says which tier satisfied the request — TapeFromMemory for
// any memory-tier hit, including joining an in-flight resolution.
func (s *Store) GetOrBuild(ctx context.Context, key string,
	fetch func(context.Context) (*trace.Tape, error), build func() *trace.Tape) (*trace.Tape, TapeSource, error) {
	s.mu.Lock()
	if e, ok := s.entries[key]; ok {
		s.stats.Hits++
		s.lru.MoveToFront(e.elem)
		s.mu.Unlock()
		select {
		case <-e.ready:
		case <-ctx.Done():
			return nil, TapeFromMemory, ctx.Err()
		}
		return e.tape, TapeFromMemory, e.err
	}
	s.stats.Misses++
	e := &storeEntry{key: key, ready: make(chan struct{})}
	e.elem = s.lru.PushFront(e)
	s.entries[key] = e
	s.mu.Unlock()

	var buildTime, fetchTime time.Duration
	built := false
	func() {
		defer func() {
			// The substrate panics on invariant breaks (invalid specs):
			// convert to an error so every waiter fails like the
			// resolver, then drop the broken entry so a fixed plan can
			// retry.
			if r := recover(); r != nil {
				e.err = fmt.Errorf("dist: resolving tape %.12s… panicked: %v", key, r)
			}
			close(e.ready)
		}()

		// Disk tier: a file written by an earlier run or another
		// process on this machine. Unreadable or mis-addressed files
		// are skipped (and removed) — the build below repairs them.
		if s.dir != "" {
			t0 := time.Now()
			if t, ok := s.loadDisk(key); ok {
				fetchTime = time.Since(t0)
				e.tape, e.src = t, TapeFromDisk
				return
			}
			fetchTime = time.Since(t0)
		}

		// Fetch hook: another worker that already built this tape.
		if fetch != nil {
			t0 := time.Now()
			if t, err := fetch(ctx); err == nil && t != nil && tapeKeyOf(t) == key {
				fetchTime += time.Since(t0)
				e.tape, e.src = t, TapeFromPeer
				s.saveDisk(key, t)
				return
			}
			fetchTime += time.Since(t0)
		}

		t0 := time.Now()
		tape := build()
		buildTime = time.Since(t0)
		built = true
		e.tape, e.src = tape, TapeBuilt
		s.saveDisk(key, tape)
	}()

	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.BuildTime += buildTime
	s.stats.FetchTime += fetchTime
	switch {
	case e.err != nil:
		if built {
			s.stats.Builds++
		}
		s.lru.Remove(e.elem)
		delete(s.entries, key)
		return nil, e.src, e.err
	case e.src == TapeFromDisk:
		s.stats.DiskHits++
	case e.src == TapeFromPeer:
		s.stats.PeerHits++
	default:
		s.stats.Builds++
	}
	s.bytes += e.tape.Bytes()
	s.evictLocked(e)
	return e.tape, e.src, nil
}

// Get returns the tape addressed by key from the memory or disk tier,
// without building. It is the read side of tape serving (GET /tapes):
// a miss is a miss, never a build. A disk hit is promoted into the
// memory tier.
func (s *Store) Get(key string) (*trace.Tape, bool) {
	s.mu.Lock()
	if e, ok := s.entries[key]; ok {
		s.lru.MoveToFront(e.elem)
		s.mu.Unlock()
		<-e.ready
		if e.err != nil {
			return nil, false
		}
		s.mu.Lock()
		s.stats.ServeMem++
		s.mu.Unlock()
		return e.tape, true
	}
	s.mu.Unlock()
	if s.dir == "" {
		return nil, false
	}
	t, ok := s.loadDisk(key)
	if !ok {
		return nil, false
	}
	s.mu.Lock()
	s.stats.ServeDisk++
	s.mu.Unlock()
	s.admit(key, t)
	return t, true
}

// Put admits an externally supplied tape (the write side of PUT
// /tapes). The tape's own identity must hash to key; mismatches are
// rejected — the store is content-addressed, not name-addressed.
func (s *Store) Put(key string, t *trace.Tape) error {
	if got := tapeKeyOf(t); got != key {
		return fmt.Errorf("dist: tape identity hashes to %.12s…, not the requested address %.12s…", got, key)
	}
	s.saveDisk(key, t)
	s.mu.Lock()
	s.stats.Puts++
	s.mu.Unlock()
	s.admit(key, t)
	return nil
}

// admit inserts a resolved tape into the memory tier (no-op if the key
// is already resident or in flight).
func (s *Store) admit(key string, t *trace.Tape) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.entries[key]; ok {
		return
	}
	e := &storeEntry{key: key, ready: make(chan struct{}), tape: t, src: TapeFromMemory}
	close(e.ready)
	e.elem = s.lru.PushFront(e)
	s.entries[key] = e
	s.bytes += t.Bytes()
	s.evictLocked(e)
}

// evictLocked drops least-recently-used completed tapes until the
// memory tier fits its budget — never the entry just resolved (a cell
// is about to replay it) and never in-flight resolutions (they carry
// no accounted bytes yet).
func (s *Store) evictLocked(keep *storeEntry) {
	for s.bytes > s.max {
		back := s.lru.Back()
		if back == nil {
			break
		}
		v := back.Value.(*storeEntry)
		if v == keep {
			break
		}
		select {
		case <-v.ready:
		default:
			// Still resolving; skip by bumping it forward so the scan
			// can terminate.
			s.lru.MoveToFront(back)
			continue
		}
		s.lru.Remove(back)
		delete(s.entries, v.key)
		if v.tape != nil {
			s.bytes -= v.tape.Bytes()
		}
		s.stats.Evictions++
	}
}

// path maps an address to its disk-tier file.
func (s *Store) path(key string) string {
	return filepath.Join(s.dir, key+tapeFileSuffix)
}

// loadDisk reads and verifies the disk tier's tape for key. Any
// failure — missing file, truncated or corrupt STMSTAPE, an identity
// that hashes to a different address — reports a miss; corrupt files
// are removed so the subsequent build repairs the tier.
func (s *Store) loadDisk(key string) (*trace.Tape, bool) {
	f, err := os.Open(s.path(key))
	if err != nil {
		return nil, false
	}
	defer f.Close()
	t, err := trace.ReadTape(f)
	if err != nil || tapeKeyOf(t) != key {
		s.mu.Lock()
		s.stats.DiskSkips++
		s.mu.Unlock()
		os.Remove(s.path(key))
		return nil, false
	}
	return t, true
}

// saveDisk persists a tape to the disk tier, atomically (write to a
// temp file, rename into place) so concurrent writers and killed
// processes can never leave a half-written file under a final name.
// Best-effort: a full disk degrades the store to its memory tier.
func (s *Store) saveDisk(key string, t *trace.Tape) {
	if s.dir == "" || t == nil {
		return
	}
	if _, err := os.Stat(s.path(key)); err == nil {
		return // already persisted by an earlier resolution
	}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return
	}
	tmp, err := os.CreateTemp(s.dir, key+".tmp*")
	if err != nil {
		return
	}
	werr := trace.WriteTape(tmp, t)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), s.path(key)); err != nil {
		os.Remove(tmp.Name())
	}
}

// --- checkpoint tier -------------------------------------------------------
//
// Checkpoints ride the same store as tapes: content-addressed by job
// identity (Job.CkptKey), held as sealed STMSCKPT containers in a
// memory side-table (latest per key — each cadence overwrites the
// previous one) and mirrored to <dir>/<key>.stmsckpt when the disk
// tier is enabled. Like tapes, a checkpoint is never trusted on
// arrival: every receiving tier verifies the container's header and
// checksum and discards corruption — a bad checkpoint costs a cold
// restart, never a wrong result.

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
	payload, err := ckpt.Open(data)
	if err != nil {
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
			ckpt.WriteFile(s.ckptPath(key), payload)
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
