package dist

// Checkpoint exchange at the wire level: workers checkpoint long jobs
// to their store, a drained worker flushes a final checkpoint and ends
// the stream with a terminal "checkpointed" event, coordinators move
// checkpoints by hand over GET/PUT /ckpts/{key}, and corruption is
// discarded at every hop — a bad checkpoint can cost a cold restart,
// never a wrong result.

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"stms/internal/ckpt"
	"stms/internal/sim"
)

func TestCkptWriteFetchPushResume(t *testing.T) {
	a := NewServer(ServerConfig{Name: "a", CheckpointEvery: 500})
	tsA := httptest.NewServer(a)
	defer tsA.Close()
	ca := NewClient(tsA.URL)

	h, err := ca.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Ckpts != 0 {
		t.Fatalf("health = %+v, want no checkpoints yet", h)
	}

	job := testJob(t, "sci-em3d", sim.PrefSpec{Kind: sim.STMS, SampleProb: 0.125})
	key := jobKey(t, job)
	res, err := ca.RunJob(context.Background(), job, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resumed || res.CkptWrites == 0 || res.CkptBytes == 0 {
		t.Fatalf("result = resumed %v, writes %d, bytes %d; want a cold run that checkpointed",
			res.Resumed, res.CkptWrites, res.CkptBytes)
	}

	// Checkpoints survive job completion — "latest checkpoint per job
	// identity" is the store's contract — and travel over GET /ckpts.
	data, err := ca.FetchCkpt(context.Background(), key)
	if err != nil {
		t.Fatal(err)
	}
	d, err := sim.Peek(data)
	if err != nil {
		t.Fatal(err)
	}
	total := (job.Config.WarmRecords + job.Config.MeasureRecords) * uint64(job.Config.Cores)
	if d.Records == 0 || d.Records >= total {
		t.Fatalf("checkpoint at %d of %d records, want a mid-run snapshot", d.Records, total)
	}
	// Workers generate live, so the checkpoint names its spec and
	// resumes anywhere without the trace being shipped along.
	if d.Source != "spec" || d.Spec == nil || *d.Spec != *job.Spec {
		t.Fatalf("checkpoint source %q (spec %v), want the job's spec", d.Source, d.Spec)
	}
	if h, err := ca.Health(context.Background()); err != nil || h.Ckpts != 1 {
		t.Fatalf("health after the run = %+v, %v; want one checkpoint held", h, err)
	}

	// Push it to an unrelated worker and run the same job there: the
	// worker resumes mid-run and the result is bit-identical to a cold
	// direct simulation.
	b := NewServer(ServerConfig{Name: "b"})
	tsB := httptest.NewServer(b)
	defer tsB.Close()
	cb := NewClient(tsB.URL)
	if err := cb.PushCkpt(context.Background(), key, data); err != nil {
		t.Fatal(err)
	}
	resB, err := cb.RunJob(context.Background(), job, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !resB.Resumed {
		t.Fatal("worker with a pushed checkpoint did not resume")
	}
	want, err := run1(context.Background(), job.Config, sim.FromSpec(*job.Spec), job.Pref)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resB.Res, want) {
		t.Fatal("resumed result differs from cold direct simulation")
	}

}

func TestDrainCheckpointsInProgressJob(t *testing.T) {
	srv := NewServer(ServerConfig{Name: "w", CheckpointEvery: 500})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := NewClient(ts.URL)

	// A job big enough to still be running when the drain lands; the
	// first progress event proves it is mid-run.
	job := testJob(t, "oltp-db2", sim.PrefSpec{Kind: sim.STMS, SampleProb: 0.125})
	job.Config.WarmRecords = 20_000
	job.Config.MeasureRecords = 200_000

	var once sync.Once
	var kinds []string
	_, err := c.RunJob(context.Background(), job, func(ev Event) {
		kinds = append(kinds, ev.Kind)
		if ev.Kind == "progress" {
			once.Do(srv.Drain)
		}
	})
	if !errors.Is(err, ErrWorkerCheckpointed) {
		t.Fatalf("drained run returned %v, want ErrWorkerCheckpointed", err)
	}
	if !IsTransport(err) {
		t.Fatal("a checkpointed job must look like a transport failure so the coordinator retries it warm")
	}
	if kinds[len(kinds)-1] != "checkpointed" {
		t.Fatalf("event stream %v, want a terminal checkpointed event", kinds)
	}

	// The flushed checkpoint is in the store and resumes elsewhere into
	// the exact cold-run result.
	key := jobKey(t, job)
	data, err := c.FetchCkpt(context.Background(), key)
	if err != nil {
		t.Fatal(err)
	}
	b := NewServer(ServerConfig{Name: "b"})
	tsB := httptest.NewServer(b)
	defer tsB.Close()
	cb := NewClient(tsB.URL)
	if err := cb.PushCkpt(context.Background(), key, data); err != nil {
		t.Fatal(err)
	}
	res, err := cb.RunJob(context.Background(), job, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := run1(context.Background(), job.Config, sim.FromSpec(*job.Spec), job.Pref)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Resumed || !reflect.DeepEqual(res.Res, want) {
		t.Fatalf("warm retry after drain: resumed %v, identical %v", res.Resumed, reflect.DeepEqual(res.Res, want))
	}
}

func TestCkptCorruptionDiscardedAtEveryTier(t *testing.T) {
	dir := t.TempDir()
	srv := NewServer(ServerConfig{Name: "w", CkptDir: dir, CheckpointEvery: 500})
	store := srv.Store()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := NewClient(ts.URL)

	job := testJob(t, "sci-em3d", sim.PrefSpec{Kind: sim.None})
	key := jobKey(t, job)
	if _, err := c.RunJob(context.Background(), job, nil); err != nil {
		t.Fatal(err)
	}
	good, ok := store.GetCkpt(key)
	if !ok {
		t.Fatal("no checkpoint after a checkpointing run")
	}

	// PUT of a torn container is rejected with a deterministic 400.
	torn := append([]byte(nil), good...)
	torn[len(torn)-1] ^= 0xFF
	if err := c.PushCkpt(context.Background(), key, torn); err == nil || IsTransport(err) {
		t.Fatalf("corrupt push: %v, want a plain rejection", err)
	}

	// A checkpoint rotted on disk is discarded on read, not served: a
	// fresh store over the same directory 404s the fetch.
	files, err := filepath.Glob(filepath.Join(dir, "*"+ckptFileSuffix))
	if err != nil || len(files) == 0 {
		t.Fatalf("checkpoint files on disk: %v, %v", files, err)
	}
	raw, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(files[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	srv2 := NewServer(ServerConfig{Name: "w2", CkptDir: dir})
	reopened := srv2.Store()
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	c2 := NewClient(ts2.URL)
	if _, err := c2.FetchCkpt(context.Background(), key); err == nil || IsTransport(err) {
		t.Fatalf("rotted checkpoint fetch: %v, want a deterministic miss", err)
	}
	if st := reopened.Stats(); st.CkptSkips == 0 {
		t.Fatalf("store stats = %+v, want the rotted file counted as a skip", st)
	}

	// A worker that serves garbage bytes is caught by the client-side
	// verify and classified as transport (retry elsewhere).
	liar := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("not a checkpoint container"))
	}))
	defer liar.Close()
	if _, err := NewClient(liar.URL).FetchCkpt(context.Background(), key); err == nil || !IsTransport(err) {
		t.Fatalf("garbage fetch: %v, want a transport-class rejection", err)
	}

	// An unknown key 404s with a nearest-address hint, like job ids.
	typo := "0" + key[1:]
	if _, err := c.FetchCkpt(context.Background(), typo); err == nil ||
		!strings.Contains(err.Error(), "nearest") {
		t.Fatalf("typo fetch: %v, want a nearest-address hint", err)
	}
}

func TestExecuteJobResumeNeverTrusted(t *testing.T) {
	job := testJob(t, "sci-em3d", sim.PrefSpec{Kind: sim.STMS, SampleProb: 0.125})
	want, err := run1(context.Background(), job.Config, sim.FromSpec(*job.Spec), job.Pref)
	if err != nil {
		t.Fatal(err)
	}

	// Harvest a genuine checkpoint for the job.
	var snap []byte
	_, _, err = ExecuteJob(context.Background(), job, nil, &ExecOptions{
		Every: 500,
		Sink:  func(data []byte) error { snap = data; return nil },
	})
	if err != nil || snap == nil {
		t.Fatalf("checkpointing run: err %v, snapshot %v", err, snap != nil)
	}

	// A checkpoint from a different prefetcher spec must not restore
	// into this job — mismatch means a cold run with exact results.
	other := testJob(t, "sci-em3d", sim.PrefSpec{Kind: sim.None})
	wantOther, err := run1(context.Background(), other.Config, sim.FromSpec(*other.Spec), other.Pref)
	if err != nil {
		t.Fatal(err)
	}
	res, resumed, err := ExecuteJob(context.Background(), other, nil, &ExecOptions{Resume: snap})
	if err != nil {
		t.Fatal(err)
	}
	if resumed || !reflect.DeepEqual(res, wantOther) {
		t.Fatalf("mismatched resume: resumed %v, identical %v — a wrong-identity checkpoint restored", resumed, reflect.DeepEqual(res, wantOther))
	}

	// A well-sealed container holding garbage likewise falls back to a
	// from-scratch run, never wrong results.
	garbage := ckpt.Seal([]byte("plausible-looking nonsense payload"))
	res, resumed, err = ExecuteJob(context.Background(), job, nil, &ExecOptions{Resume: garbage})
	if err != nil {
		t.Fatal(err)
	}
	if resumed || !reflect.DeepEqual(res, want) {
		t.Fatalf("garbage resume: resumed %v, identical %v", resumed, reflect.DeepEqual(res, want))
	}

	// The genuine checkpoint, for contrast, resumes bit-identically.
	res, resumed, err = ExecuteJob(context.Background(), job, nil, &ExecOptions{Resume: snap})
	if err != nil {
		t.Fatal(err)
	}
	if !resumed || !reflect.DeepEqual(res, want) {
		t.Fatalf("genuine resume: resumed %v, identical %v", resumed, reflect.DeepEqual(res, want))
	}
}
