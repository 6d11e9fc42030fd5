package dist

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"stms/internal/ckpt"
)

func TestStoreDiskTierPersists(t *testing.T) {
	dir := t.TempDir()
	data := ckpt.Seal([]byte("checkpoint payload"))
	if err := NewStore(dir).PutCkpt("k1", data); err != nil {
		t.Fatal(err)
	}

	// A fresh store over the same directory serves the checkpoint from
	// disk, byte for byte.
	s2 := NewStore(dir)
	got, ok := s2.GetCkpt("k1")
	if !ok || string(got) != string(data) {
		t.Fatalf("reopened store: ok %v, %d bytes; want the %d stored bytes", ok, len(got), len(data))
	}
	if st := s2.Stats(); st.CkptServes != 1 {
		t.Fatalf("stats = %+v, want 1 serve", st)
	}
	// A memory-only store keeps nothing across instances.
	if err := NewStore("").PutCkpt("k2", data); err != nil {
		t.Fatal(err)
	}
	if _, ok := NewStore("").GetCkpt("k2"); ok {
		t.Fatal("memory-only store served a checkpoint it never held")
	}
}

func TestStoreKeysSpansTiers(t *testing.T) {
	dir := t.TempDir()
	data := ckpt.Seal([]byte("checkpoint payload"))
	if err := NewStore(dir).PutCkpt("on-disk", data); err != nil {
		t.Fatal(err)
	}
	// A fresh store sees the disk file without loading it, next to the
	// checkpoints it holds in memory, and counts each key once.
	s := NewStore(dir)
	if err := s.PutCkpt("in-memory", data); err != nil {
		t.Fatal(err)
	}
	if err := s.PutCkpt("on-disk", data); err != nil {
		t.Fatal(err)
	}
	keys := s.CkptKeys()
	slices.Sort(keys)
	if !slices.Equal(keys, []string{"in-memory", "on-disk"}) {
		t.Fatalf("CkptKeys() = %v, want both tiers once each", keys)
	}
}

// TestStoreResidentBytesBounded: a worker that runs many jobs keeps at
// most its byte bound of checkpoints in memory, dropping the least
// recently written or served ones first; the disk tier still serves
// what memory dropped.
func TestStoreResidentBytesBounded(t *testing.T) {
	if got := NewStore("").limit; got != maxResidentBytes {
		t.Fatalf("store bound = %d, want maxResidentBytes (%d)", got, maxResidentBytes)
	}
	dir := t.TempDir()
	s := NewStore(dir)
	s.limit = 64 << 10
	data := ckpt.Seal(make([]byte, 4<<10))
	key := func(i int) string { return fmt.Sprintf("job-%03d", i) }
	const jobs = 100
	for i := 0; i < jobs; i++ {
		if err := s.PutCkpt(key(i), data); err != nil {
			t.Fatal(err)
		}
		if st := s.Stats(); st.ResidentBytes > uint64(s.limit) {
			t.Fatalf("after %d puts %d bytes resident, bound %d", i+1, st.ResidentBytes, s.limit)
		}
	}
	st := s.Stats()
	if want := uint64(s.limit / len(data) * len(data)); st.ResidentBytes != want {
		t.Fatalf("%d bytes resident, want the bound filled to %d", st.ResidentBytes, want)
	}
	if st.CkptEvictions == 0 || len(s.ckpts) != s.limit/len(data) {
		t.Fatalf("stats %+v with %d resident, want evictions down to %d", st, len(s.ckpts), s.limit/len(data))
	}
	// Serving counts as use: the oldest resident checkpoint, once
	// read, outlives the next oldest.
	oldest := jobs - len(s.ckpts)
	if _, ok := s.GetCkpt(key(oldest)); !ok {
		t.Fatal("oldest resident checkpoint not served")
	}
	if err := s.PutCkpt(key(jobs), data); err != nil {
		t.Fatal(err)
	}
	for i, want := range map[int]bool{oldest: true, oldest + 1: false, jobs: true, 0: false} {
		if _, ok := s.ckpts[key(i)]; ok != want {
			t.Errorf("job %d resident = %v, want %v", i, ok, want)
		}
	}
	// Dropped from memory, served from disk, and resident again.
	if got, ok := s.GetCkpt(key(0)); !ok || !bytes.Equal(got, data) {
		t.Fatal("the disk tier did not serve a checkpoint memory dropped")
	}
	if st := s.Stats(); st.ResidentBytes > uint64(s.limit) {
		t.Fatalf("after a disk read %d bytes resident, bound %d", st.ResidentBytes, s.limit)
	}
}
