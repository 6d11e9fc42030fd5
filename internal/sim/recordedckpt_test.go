package sim

import (
	"bytes"
	"compress/gzip"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"path/filepath"
	"testing"

	"stms/internal/trace"
)

// TestResumeRecordedCheckpoints: STMSCKPT files recorded before the
// history buffer and the unbounded index moved to paged storage still
// resume, and reach the Results (SHA-256 of their JSON) the recording
// code reached. Each file is the middle of five checkpoints (cadence
// 7000) of a timed oltp-db2 run at ckptConfig; ideal-h512 caps the
// history at 512 entries under an unbounded index (the Figure 5 left
// setting), so its index holds stale pointers.
func TestResumeRecordedCheckpoints(t *testing.T) {
	spec, err := trace.ByName("oltp-db2")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		file string
		ps   PrefSpec
		hash string
	}{
		{"oltp-db2-ideal", PrefSpec{Kind: Ideal}, "c795bb0d8c3e2e5d2a1e9ebc54a1d9623dc48c6626444dd8fc0c461660e32c3d"},
		{"oltp-db2-ideal-h512", PrefSpec{Kind: Ideal, HistoryEntries: 512}, "dbe47fe79a92e9898897d93f5be40539b83e1afdd0c92356df3cb56d2387c145"},
		{"oltp-db2-stms", PrefSpec{Kind: STMS}, "a21a3d762f7e57e04abb56858574aede995267c13d487bd76ba298802fcc6361"},
	} {
		t.Run(c.file, func(t *testing.T) {
			hash := func(r Results) string {
				sum := sha256.Sum256(resultsJSON(t, r))
				return hex.EncodeToString(sum[:])
			}
			data := readGzip(t, filepath.Join("testdata", "recordedckpt", c.file+".ckpt.gz"))
			resumed, err := ResumeFromBytes(context.Background(), data, nil)
			if err != nil {
				t.Fatal(err)
			}
			if h := hash(resumed); h != c.hash {
				t.Errorf("resumed Results hash %s, recorded %s", h, c.hash)
			}
			whole, err := RunTimedCtx(context.Background(), ckptConfig(), spec, c.ps, nil)
			if err != nil {
				t.Fatal(err)
			}
			if h := hash(whole); h != c.hash {
				t.Errorf("uninterrupted Results hash %s, recorded %s", h, c.hash)
			}
		})
	}
}

func readGzip(t *testing.T, path string) []byte {
	t.Helper()
	f, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(f))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
