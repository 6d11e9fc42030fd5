package lab

// Chaos soak: the distributed lab under a fixed fault schedule —
// refused connections, a stream stalled mid-event, circuit breakers
// tripping — must still produce a canonical matrix export
// byte-identical to an in-process run. Cells are pure functions of
// their configuration, which gives these tests a perfect oracle:
// resilience machinery may change *where* and *when* a cell runs,
// never *what* it computes.

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"stms/internal/ckpt"
	"stms/internal/dist"
	"stms/internal/sim"
	"stms/internal/trace"
)

// fastResilience keeps chaos tests short and their counters exact: two
// retry rounds, a breaker that trips at the second consecutive failure,
// and a cooldown long enough that a tripped worker stays out for the
// rest of the test (deterministic gating). The stall window keeps its
// 30s default: injected stalls end the stream at a logical position,
// so no healthy cell comes near it.
func fastResilience() Resilience {
	return Resilience{
		RetryRounds:     2,
		BreakerAfter:    2,
		BreakerCooldown: 10 * time.Minute,
	}
}

func TestChaosSoakByteIdenticalExport(t *testing.T) {
	urls := testWorkers(t, 2)
	workloads := []string{"sci-em3d", "oltp-db2"}
	prefs := remotePrefs[:2]

	// The fault schedule, deterministic in the rules' match counters
	// with Parallelism(1) fixing the request order:
	//   - the first three POST /jobs are refused: cell 1 fails on both
	//     workers, backs off, fails once more (tripping that worker's
	//     breaker at the second consecutive failure), and lands on the
	//     fourth attempt;
	//   - the fifth POST /jobs delivers 20 bytes and stalls, ending at
	//     the worker's first progress event: cell 2's first live attempt
	//     aborts with ErrStalled, backs off, and succeeds on the retry;
	//   - cells 3 and 4 run clean (on whichever workers the breaker
	//     still admits).
	in := dist.NewInjector(dist.BaseTransport(),
		dist.FaultRule{Kind: dist.FaultRefuse, Path: "/jobs", From: 0, Until: 3},
		dist.FaultRule{Kind: dist.FaultStall, Path: "/jobs", From: 4, Until: 5, After: 20},
	)
	var notes []string
	chaos := testLab(t,
		WithWorkers(urls),
		WithParallelism(1),
		WithResilience(fastResilience()),
		WithWorkerTransport(in),
		WithProgress(func(ev ResultEvent) {
			if ev.Note != "" {
				notes = append(notes, ev.Note)
			}
		}),
	)
	cm, err := chaos.Run(context.Background(), chaos.Plan(workloads, prefs))
	if err != nil {
		t.Fatal(err)
	}

	local := testLab(t)
	lm, err := local.Run(context.Background(), local.Plan(workloads, prefs))
	if err != nil {
		t.Fatal(err)
	}

	// The headline claim: canonical exports (wall zeroed — it measures
	// the machine and the injected faults, not the simulated system) are
	// byte-identical however unkind the network was.
	for i := range cm.Cells {
		cm.Cells[i].Wall = 0
		lm.Cells[i].Wall = 0
	}
	var cj, lj bytes.Buffer
	if err := cm.WriteJSON(&cj); err != nil {
		t.Fatal(err)
	}
	if err := lm.WriteJSON(&lj); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cj.Bytes(), lj.Bytes()) {
		t.Fatalf("chaos export differs from local:\nchaos %s\nlocal %s", cj.Bytes(), lj.Bytes())
	}

	// Every cell still completed remotely, and the resilience machinery
	// demonstrably engaged. The counters are exact: the fault sequence
	// is a pure function of the schedule and Parallelism(1) fixes
	// the request order.
	rs := chaos.RemoteStats()
	if int(rs.RemoteCells) != len(cm.Cells) || rs.LocalCells != 0 {
		t.Fatalf("dispatch stats = %+v, want all %d cells remote", rs, len(cm.Cells))
	}
	if rs.Retries != 4 {
		t.Errorf("retries = %d, want 4 (3 refusals + 1 stall)", rs.Retries)
	}
	if rs.BreakerTrips != 1 {
		t.Errorf("breaker trips = %d, want 1", rs.BreakerTrips)
	}
	if rs.StallAborts != 1 {
		t.Errorf("stall aborts = %d, want 1", rs.StallAborts)
	}
	if rs.BackoffWaits != 2 {
		t.Errorf("backoff waits = %d, want 2", rs.BackoffWaits)
	}
	fired := in.Fired()
	if fired[dist.FaultRefuse] != 3 || fired[dist.FaultStall] != 1 {
		t.Errorf("injector fired %v, want 3 refusals and 1 stall", fired)
	}

	// Satellite: degradation is never silent — the recovered cells'
	// events carry the aggregated per-attempt errors.
	if len(notes) == 0 {
		t.Fatal("no ResultEvent carried a degradation note")
	}
	if !strings.Contains(strings.Join(notes, "\n"), "recovered on") {
		t.Fatalf("notes never mention recovery: %q", notes)
	}
}

func TestChaosFallbackStillExact(t *testing.T) {
	// Refuse everything: every cell degrades to in-process execution,
	// loudly, and the matrix still matches a purely local run.
	urls := testWorkers(t, 2)
	in := dist.NewInjector(dist.BaseTransport(),
		dist.FaultRule{Kind: dist.FaultRefuse, Path: "/jobs"})
	var notes []string
	chaos := testLab(t,
		WithWorkers(urls),
		WithParallelism(1),
		WithResilience(fastResilience()),
		WithWorkerTransport(in),
		WithProgress(func(ev ResultEvent) {
			if ev.Note != "" {
				notes = append(notes, ev.Note)
			}
		}),
	)
	workloads := []string{"sci-em3d"}
	cm, err := chaos.Run(context.Background(), chaos.Plan(workloads, remotePrefs))
	if err != nil {
		t.Fatal(err)
	}
	local := testLab(t)
	lm, err := local.Run(context.Background(), local.Plan(workloads, remotePrefs))
	if err != nil {
		t.Fatal(err)
	}
	for i := range lm.Cells {
		if cm.Cells[i].Res == nil || !reflect.DeepEqual(cm.Cells[i].Res, lm.Cells[i].Res) {
			t.Fatalf("cell %d: degraded result differs from local", i)
		}
	}
	rs := chaos.RemoteStats()
	if rs.RemoteCells != 0 || int(rs.LocalCells) != len(cm.Cells) {
		t.Fatalf("dispatch stats = %+v, want every cell local", rs)
	}
	if rs.BreakerTrips == 0 {
		t.Fatalf("dispatch stats = %+v, want breaker trips under total refusal", rs)
	}
	if len(notes) == 0 || !strings.Contains(notes[0], "degraded to local") {
		t.Fatalf("fallback notes = %q, want explicit degradation", notes)
	}
}

// ckptWorkers starts n workers checkpointing every `every` records (0:
// only on drain). The coordinator's GET/PUT /ckpts exchange is the only
// way a checkpoint moves between them.
func ckptWorkers(t *testing.T, n int, every uint64) ([]string, []*dist.Server) {
	t.Helper()
	servers := make([]*dist.Server, n)
	urls := make([]string, n)
	for i := range servers {
		servers[i] = dist.NewServer(dist.ServerConfig{
			Name:            fmt.Sprintf("ckpt-w%d", i),
			CheckpointEvery: every,
		})
		ts := httptest.NewServer(servers[i])
		urls[i] = ts.URL
		t.Cleanup(ts.Close)
	}
	return urls, servers
}

func TestChaosKillResumeFromExchangedCheckpoint(t *testing.T) {
	// A worker dies mid-job: its event stream stalls at the job's first
	// progress event, after it has checkpointed to its store. Workers
	// never ask each other for checkpoints, so the only way the retry
	// can run warm is the coordinator exchange: GET the dead worker's
	// latest checkpoint, PUT it to the next-ranked worker, and that
	// attempt resumes mid-run. The recovery must be visible in the
	// counters and invisible in the results.
	urls, _ := ckptWorkers(t, 2, 500)
	workloads := []string{"sci-em3d"}

	in := dist.NewInjector(dist.BaseTransport(),
		dist.FaultRule{Kind: dist.FaultStall, Path: "/jobs", From: 0, Until: 1, After: 20},
	)
	var notes []string
	chaos := testLab(t,
		WithWorkers(urls),
		WithParallelism(1),
		WithResilience(fastResilience()),
		WithWorkerTransport(in),
		WithProgress(func(ev ResultEvent) {
			if ev.Note != "" {
				notes = append(notes, ev.Note)
			}
		}),
	)
	cm, err := chaos.Run(context.Background(), chaos.Plan(workloads, remotePrefs))
	if err != nil {
		t.Fatal(err)
	}

	local := testLab(t)
	lm, err := local.Run(context.Background(), local.Plan(workloads, remotePrefs))
	if err != nil {
		t.Fatal(err)
	}

	// The headline claim: the export is byte-identical to a purely local
	// run — resuming mid-cell changed where the records were simulated,
	// never what they computed.
	for i := range cm.Cells {
		cm.Cells[i].Wall = 0
		lm.Cells[i].Wall = 0
	}
	var cj, lj bytes.Buffer
	if err := cm.WriteJSON(&cj); err != nil {
		t.Fatal(err)
	}
	if err := lm.WriteJSON(&lj); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cj.Bytes(), lj.Bytes()) {
		t.Fatalf("kill-resume export differs from local:\nchaos %s\nlocal %s", cj.Bytes(), lj.Bytes())
	}

	rs := chaos.RemoteStats()
	if int(rs.RemoteCells) != len(cm.Cells) || rs.LocalCells != 0 {
		t.Fatalf("dispatch stats = %+v, want all %d cells remote", rs, len(cm.Cells))
	}
	if rs.StallAborts != 1 || rs.Retries != 1 {
		t.Errorf("stalls = %d, retries = %d, want exactly 1 each", rs.StallAborts, rs.Retries)
	}
	if rs.CkptResumes != 1 {
		t.Errorf("checkpoint resumes = %d, want exactly 1 (the killed cell's retry)", rs.CkptResumes)
	}
	if rs.CkptFetches == 0 {
		t.Error("no checkpoint crossed GET /ckpts — the exchange never happened")
	}
	if rs.CkptWrites == 0 || rs.CkptBytes == 0 {
		t.Errorf("checkpoint writes = %d bytes = %d, want checkpointing workers to report both", rs.CkptWrites, rs.CkptBytes)
	}
	if rs.ResumeWall <= 0 {
		t.Errorf("resume wall = %v, want the resumed run's simulation time accounted", rs.ResumeWall)
	}
	if !strings.Contains(strings.Join(notes, "\n"), "resumed from the exchanged checkpoint") {
		t.Fatalf("notes never mention the checkpoint resume: %q", notes)
	}
}

func TestChaosLocalFallbackResumesExchangedCheckpoint(t *testing.T) {
	// The only worker checkpoints every job but never gets a result back
	// to the coordinator: every POST /jobs stream stalls at its first
	// progress event, while GET /ckpts still answers. Every attempt fails, the
	// cell degrades to in-process execution, and that local run resumes
	// from the checkpoint the coordinator fetched: the worker generated
	// the trace live, and so does the local run. The export is
	// byte-identical to a purely local run.
	urls, _ := ckptWorkers(t, 1, 500)
	workloads := []string{"sci-em3d"}
	prefs := remotePrefs[2:]
	in := dist.NewInjector(dist.BaseTransport(),
		dist.FaultRule{Kind: dist.FaultStall, Path: "/jobs", After: 20})
	var notes []string
	chaos := testLab(t,
		WithWorkers(urls),
		WithParallelism(1),
		WithResilience(fastResilience()),
		WithWorkerTransport(in),
		WithProgress(func(ev ResultEvent) {
			if ev.Note != "" {
				notes = append(notes, ev.Note)
			}
		}),
	)
	cm, err := chaos.Run(context.Background(), chaos.Plan(workloads, prefs))
	if err != nil {
		t.Fatal(err)
	}
	local := testLab(t)
	lm, err := local.Run(context.Background(), local.Plan(workloads, prefs))
	if err != nil {
		t.Fatal(err)
	}
	cm.Cells[0].Wall, lm.Cells[0].Wall = 0, 0
	var cj, lj bytes.Buffer
	if err := cm.WriteJSON(&cj); err != nil {
		t.Fatal(err)
	}
	if err := lm.WriteJSON(&lj); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cj.Bytes(), lj.Bytes()) {
		t.Fatalf("fallback-resume export differs from local:\nchaos %s\nlocal %s", cj.Bytes(), lj.Bytes())
	}

	rs := chaos.RemoteStats()
	if rs.LocalCells != 1 || rs.RemoteCells != 0 {
		t.Fatalf("dispatch stats = %+v, want the one cell degraded to local", rs)
	}
	if rs.CkptResumes != 1 || rs.CkptFetches == 0 {
		t.Fatalf("dispatch stats = %+v, want the local run resumed from a fetched checkpoint", rs)
	}
	if !strings.Contains(strings.Join(notes, "\n"), "resumed from the exchanged checkpoint") {
		t.Fatalf("notes never mention the checkpoint resume: %q", notes)
	}
}

func TestChaosCorruptCheckpointFallsBackCold(t *testing.T) {
	// A checkpoint whose container seals cleanly but whose payload is
	// garbage sits in the worker's store under exactly the cell's
	// address. The worker must discard it and run from scratch — a
	// corrupt checkpoint can cost a cold start, never wrong results.
	urls, servers := ckptWorkers(t, 1, 500)
	workloads := []string{"sci-em3d"}
	prefs := remotePrefs[2:] // the STMS variant: the most checkpoint state to corrupt

	// Default resilience: nothing here should stall, retry, or resume.
	chaos := testLab(t, WithWorkers(urls))
	plan := chaos.Plan(workloads, prefs)
	if len(plan.Cells) != 1 {
		t.Fatalf("plan has %d cells, want 1", len(plan.Cells))
	}
	ckptKey := cellKey(&plan.Cells[0])
	if err := servers[0].Store().PutCkpt(ckptKey, ckpt.Seal([]byte("sealed nonsense"))); err != nil {
		t.Fatal(err)
	}

	cm, err := chaos.Run(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	local := testLab(t)
	lm, err := local.Run(context.Background(), local.Plan(workloads, prefs))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cm.Cells[0].Res, lm.Cells[0].Res) {
		t.Fatal("result after corrupt-checkpoint fallback differs from local — the garbage restored")
	}
	rs := chaos.RemoteStats()
	if rs.CkptResumes != 0 {
		t.Fatalf("checkpoint resumes = %d, want 0 (the corrupt checkpoint must not resume)", rs.CkptResumes)
	}
	if int(rs.RemoteCells) != 1 || rs.Retries != 0 {
		t.Fatalf("dispatch stats = %+v, want one clean remote cell", rs)
	}
}

// harvestCkpts runs job in-process with a checkpoint every 500 records
// and returns the sealed checkpoints in the order they were written.
func harvestCkpts(t *testing.T, job *dist.Job) [][]byte {
	t.Helper()
	var snaps [][]byte
	if _, _, err := dist.ExecuteJob(context.Background(), job, nil, &dist.ExecOptions{
		Every: 500,
		Sink:  func(data []byte) error { snaps = append(snaps, append([]byte(nil), data...)); return nil },
	}); err != nil {
		t.Fatal(err)
	}
	if len(snaps) < 3 {
		t.Fatalf("harvested %d checkpoints, want at least 3", len(snaps))
	}
	return snaps
}

func TestChaosForeignCheckpointNeverAdopted(t *testing.T) {
	// PUT /ckpts admits any sound container under any key. One worker
	// holds a genuine early checkpoint of the cell; the other holds,
	// under the same key, a later checkpoint of another workload with
	// the same mode, configuration and prefetcher. Every job stream
	// stalls, so the coordinator fetches from both and the cell
	// degrades to local. Only the genuine checkpoint may be adopted and
	// resumed: the foreign one, further along, is never counted.
	urls, servers := ckptWorkers(t, 2, 0)
	workloads := []string{"sci-em3d"}
	prefs := remotePrefs[2:]
	in := dist.NewInjector(dist.BaseTransport(),
		dist.FaultRule{Kind: dist.FaultStall, Path: "/jobs", After: 20})
	var notes []string
	chaos := testLab(t,
		WithWorkers(urls),
		WithParallelism(1),
		WithResilience(fastResilience()),
		WithWorkerTransport(in),
		WithProgress(func(ev ResultEvent) {
			if ev.Note != "" {
				notes = append(notes, ev.Note)
			}
		}),
	)
	plan := chaos.Plan(workloads, prefs)
	job, err := jobFromCell(&plan.Cells[0])
	if err != nil {
		t.Fatal(err)
	}
	ckptKey := cellKey(&plan.Cells[0])
	foreign := *job
	spec, err := trace.ByName("oltp-db2")
	if err != nil {
		t.Fatal(err)
	}
	foreign.Workload, foreign.Spec = "oltp-db2", &spec
	genuine := harvestCkpts(t, job)[0]
	alien := harvestCkpts(t, &foreign)[2]
	gd, err := sim.Peek(genuine)
	if err != nil {
		t.Fatal(err)
	}
	ad, err := sim.Peek(alien)
	if err != nil {
		t.Fatal(err)
	}
	if ad.Mode != gd.Mode || ad.Cfg != gd.Cfg || ad.Records <= gd.Records {
		t.Fatalf("foreign checkpoint: mode %s, %d records; want genuine's mode %s, config, and more than %d records",
			ad.Mode, ad.Records, gd.Mode, gd.Records)
	}
	if err := servers[0].Store().PutCkpt(ckptKey, genuine); err != nil {
		t.Fatal(err)
	}
	if err := servers[1].Store().PutCkpt(ckptKey, alien); err != nil {
		t.Fatal(err)
	}

	cm, err := chaos.Run(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	local := testLab(t)
	lm, err := local.Run(context.Background(), local.Plan(workloads, prefs))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cm.Cells[0].Res, lm.Cells[0].Res) {
		t.Fatal("result differs from a purely local run")
	}
	rs := chaos.RemoteStats()
	if rs.LocalCells != 1 || rs.CkptResumes != 1 {
		t.Fatalf("dispatch stats = %+v, want the cell degraded to local and resumed", rs)
	}
	if rs.CkptFetches != 1 {
		t.Fatalf("checkpoint fetches = %d, want 1: only the genuine checkpoint counts", rs.CkptFetches)
	}
	want := fmt.Sprintf("resumed from the exchanged checkpoint (%d records in)", gd.Records)
	if !strings.Contains(strings.Join(notes, "\n"), want) {
		t.Fatalf("notes %q, want %q", notes, want)
	}
}

func TestManifestPartialCellResumesAcrossSessions(t *testing.T) {
	// A coordinator that died mid-cell left two artifacts: a partial
	// entry in its manifest (the cell's checkpoint address) and the
	// checkpoint itself in a worker's store. A restarted session on the
	// same manifest must sweep the ranking for that checkpoint before
	// the first attempt and resume the partial cell instead of starting
	// it over.
	urls, servers := ckptWorkers(t, 2, 500)
	path := filepath.Join(t.TempDir(), "run.manifest")
	workloads := []string{"sci-em3d"}
	prefs := remotePrefs[2:]

	// Default resilience throughout: no faults are injected here, and
	// fastResilience's 300ms stall window can spuriously abort a healthy
	// run under -race, perturbing the exact resume counters.
	seed := testLab(t, WithWorkers(urls), WithManifest(path))
	plan := seed.Plan(workloads, prefs)
	job, err := jobFromCell(&plan.Cells[0])
	if err != nil {
		t.Fatal(err)
	}
	ckptKey := cellKey(&plan.Cells[0])
	// Manufacture the dead session's leavings: a genuine mid-run
	// checkpoint parked on a worker, and the manifest recording it.
	snaps := harvestCkpts(t, job)
	snap := snaps[len(snaps)-1]
	for _, s := range servers {
		if err := s.Store().PutCkpt(ckptKey, snap); err != nil {
			t.Fatal(err)
		}
	}
	seed.recordPartial(ckptKey)

	// The restarted session: the proactive sweep fetches the checkpoint
	// and the first attempt resumes.
	resumed := testLab(t, WithWorkers(urls), WithManifest(path))
	if !resumed.hasPartial(ckptKey) {
		t.Fatal("restarted session did not load the partial cell")
	}
	rm, err := resumed.Run(context.Background(), resumed.Plan(workloads, prefs))
	if err != nil {
		t.Fatal(err)
	}
	rs := resumed.RemoteStats()
	if rs.CkptResumes != 1 || rs.CkptFetches == 0 {
		t.Fatalf("dispatch stats = %+v, want the partial cell fetched and resumed", rs)
	}

	local := testLab(t)
	lm, err := local.Run(context.Background(), local.Plan(workloads, prefs))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rm.Cells[0].Res, lm.Cells[0].Res) {
		t.Fatal("partial-cell resume differs from an uninterrupted local run")
	}

	// Completion supersedes the partial: a third session neither resumes
	// nor re-runs the cell.
	third := testLab(t, WithWorkers(urls), WithManifest(path))
	if third.hasPartial(ckptKey) {
		t.Fatal("completed cell still partial in a fresh session")
	}
	if got := third.MemoSize(); got != 1 {
		t.Fatalf("third session preloaded %d cells, want 1", got)
	}
}

func TestWorkerAuthAtLabLevel(t *testing.T) {
	srv := dist.NewServer(dist.ServerConfig{Name: "locked", Token: "tok"})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	url := ts.URL
	workloads := []string{"sci-em3d"}

	// Wrong token: a deterministic rejection — the cell fails without
	// burning transport retries or silently degrading to local.
	bad := testLab(t,
		WithWorkers([]string{url}),
		WithWorkerAuth("wrong"),
		WithResilience(fastResilience()),
	)
	m, err := bad.Run(context.Background(), bad.Plan(workloads, remotePrefs[:1]))
	if err == nil {
		t.Fatal("wrong-token run succeeded")
	}
	if m.Cells[0].Err == nil || !strings.Contains(m.Cells[0].Err.Error(), "401") {
		t.Fatalf("cell error = %v, want a 401 rejection", m.Cells[0].Err)
	}
	rs := bad.RemoteStats()
	if rs.Retries != 0 || rs.LocalCells != 0 {
		t.Fatalf("dispatch stats = %+v, want a 401 neither retried nor degraded", rs)
	}

	// Matching token: business as usual.
	good := testLab(t, WithWorkers([]string{url}), WithWorkerAuth("tok"))
	gm, err := good.Run(context.Background(), good.Plan(workloads, remotePrefs[:1]))
	if err != nil {
		t.Fatal(err)
	}
	grs := good.RemoteStats()
	if int(grs.RemoteCells) != len(gm.Cells) || grs.Retries != 0 {
		t.Fatalf("dispatch stats = %+v, want all cells remote with no retries", grs)
	}
}
