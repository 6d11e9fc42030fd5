package dist

import (
	"slices"
	"testing"

	"stms/internal/ckpt"
	"stms/internal/trace"
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
	if n := s.CkptCount(); n != 2 {
		t.Fatalf("CkptCount() = %d, want 2", n)
	}
}

func TestTapeKeyDisambiguates(t *testing.T) {
	spec, err := trace.ByName("web-apache")
	if err != nil {
		t.Fatal(err)
	}
	base := TapeKey(spec, "", 1, 4, 1000)
	if TapeKey(spec, "", 2, 4, 1000) == base {
		t.Fatal("seed not in the address")
	}
	if TapeKey(spec, "", 1, 2, 1000) == base {
		t.Fatal("cores not in the address")
	}
	if TapeKey(spec, "", 1, 4, 2000) == base {
		t.Fatal("record budget not in the address")
	}
	scn := trace.Stationary("w", spec)
	if TapeKey(trace.Spec{}, scn.Key(), 1, 4, 1000) == base {
		t.Fatal("scenario identity not in the address")
	}
	if len(base) != 64 {
		t.Fatalf("address %q is not a sha256 hex digest", base)
	}
	for i := 0; i < 3; i++ {
		if TapeKey(spec, "", 1, 4, 1000) != base {
			t.Fatal("address not deterministic")
		}
	}
}
