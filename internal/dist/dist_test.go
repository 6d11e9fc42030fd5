package dist

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"stms/internal/sim"
	"stms/internal/trace"
)

// run1 runs one prefetcher variant over in.
func run1(ctx context.Context, cfg sim.Config, in sim.Input, ps sim.PrefSpec, opts ...sim.RunOption) (sim.Results, error) {
	rs, err := sim.Run(ctx, cfg, in, []sim.PrefSpec{ps}, opts...)
	if err != nil {
		return sim.Results{}, err
	}
	return rs[0], nil
}

// testJob builds a small timed job over a named workload.
func testJob(t *testing.T, workload string, pref sim.PrefSpec) *Job {
	t.Helper()
	spec, err := trace.ByName(workload)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	cfg.Scale = 0.0625
	cfg.Seed = 11
	cfg.WarmRecords = 500
	cfg.MeasureRecords = 1_000
	return &Job{
		Version:  JobFormatVersion,
		Mode:     "timed",
		Workload: workload,
		Variant:  "test",
		Spec:     &spec,
		Config:   cfg,
		Pref:     pref,
	}
}

// jobKey is the job's checkpoint address: its run identity's key.
func jobKey(t *testing.T, job *Job) string {
	t.Helper()
	id, err := job.identity()
	if err != nil {
		t.Fatal(err)
	}
	return id.Key()
}

func TestJobValidate(t *testing.T) {
	good := testJob(t, "sci-em3d", sim.PrefSpec{Kind: sim.None})
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := *good
	bad.Version = 2
	if err := bad.Validate(); err == nil {
		t.Error("wrong version accepted")
	}
	bad = *good
	bad.Mode = "cycle-accurate"
	if err := bad.Validate(); err == nil {
		t.Error("unknown mode accepted")
	}
	bad = *good
	bad.Spec = nil
	if err := bad.Validate(); err == nil {
		t.Error("job with no workload accepted")
	}
	bad = *good
	bad.Scenario = json.RawMessage(`{}`)
	if err := bad.Validate(); err == nil {
		t.Error("job with both spec and scenario accepted")
	}
}

func TestJobJSONRoundTrip(t *testing.T) {
	job := testJob(t, "oltp-db2", sim.PrefSpec{Kind: sim.STMS, SampleProb: 0.125})
	b, err := json.Marshal(job)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"stms_job":1`) {
		t.Fatalf("job document not versioned: %s", b)
	}
	var back Job
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(job, &back) {
		t.Fatalf("job not identical after round trip:\n got %+v\nwant %+v", back, job)
	}
	id1, err := job.identity()
	if err != nil {
		t.Fatal(err)
	}
	id2, err := back.identity()
	if err != nil {
		t.Fatal(err)
	}
	if err := id1.Check(id2); err != nil {
		t.Fatalf("run identity changed across the wire: %v", err)
	}
}

func TestServerRunJobMatchesDirectSim(t *testing.T) {
	srv := NewServer(ServerConfig{Name: "w1"})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := NewClient(ts.URL)

	h, err := c.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Name != "w1" || h.Version != HealthFormatVersion {
		t.Fatalf("health = %+v", h)
	}

	job := testJob(t, "sci-em3d", sim.PrefSpec{Kind: sim.STMS, SampleProb: 0.125})
	var kinds []string
	res, err := c.RunJob(context.Background(), job, func(ev Event) {
		kinds = append(kinds, ev.Kind)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Worker != "w1" {
		t.Fatalf("result meta = worker %q", res.Worker)
	}
	if kinds[0] != "started" || kinds[len(kinds)-1] != "done" {
		t.Fatalf("event stream %v", kinds)
	}

	// The remote result is bit-identical to running the same cell
	// through sim.Run directly.
	want, err := run1(context.Background(), job.Config, sim.FromSpec(*job.Spec), job.Pref)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Res, want) {
		t.Fatalf("remote result differs from direct simulation:\n got %+v\nwant %+v", res.Res, want)
	}

	// A second run of the same job generates the trace again, to the
	// same bits.
	res2, err := c.RunJob(context.Background(), job, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res2.Res, want) {
		t.Fatal("rerun differs from the first result")
	}
}

func TestServerScenarioJob(t *testing.T) {
	srv := NewServer(ServerConfig{CheckpointEvery: 500})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := NewClient(ts.URL)

	spec, err := trace.ByName("web-apache")
	if err != nil {
		t.Fatal(err)
	}
	scn := trace.Stationary("station", spec)
	scnJSON, err := json.Marshal(scn)
	if err != nil {
		t.Fatal(err)
	}
	job := testJob(t, "web-apache", sim.PrefSpec{Kind: sim.Ideal})
	job.Spec = nil
	job.Scenario = scnJSON
	res, err := c.RunJob(context.Background(), job, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := run1(context.Background(), job.Config, sim.FromScenario(scn), job.Pref)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Res, want) {
		t.Fatal("remote scenario result differs from direct simulation")
	}

	// The worker's checkpoint names the scenario it generated live.
	key := jobKey(t, job)
	data, err := c.FetchCkpt(context.Background(), key)
	if err != nil {
		t.Fatal(err)
	}
	d, err := sim.Peek(data)
	if err != nil {
		t.Fatal(err)
	}
	if d.Source != "scenario" || d.Scenario == nil || d.Scenario.Key() != scn.Key() {
		t.Fatalf("checkpoint source %q, want the job's scenario", d.Source)
	}
}

func TestServerJobFailureIsNotTransport(t *testing.T) {
	srv := NewServer(ServerConfig{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := NewClient(ts.URL)

	job := testJob(t, "sci-em3d", sim.PrefSpec{Kind: sim.None})
	job.Config.Cores = -4 // deterministic config failure
	_, err := c.RunJob(context.Background(), job, nil)
	if err == nil {
		t.Fatal("broken config succeeded")
	}
	if IsTransport(err) {
		t.Fatalf("deterministic job failure classified as transport: %v", err)
	}

	// A structurally invalid job is rejected with 400, also non-transport.
	bad := testJob(t, "sci-em3d", sim.PrefSpec{Kind: sim.None})
	bad.Mode = "warp"
	_, err = c.RunJob(context.Background(), bad, nil)
	if err == nil || IsTransport(err) {
		t.Fatalf("protocol rejection should be a plain error, got %v", err)
	}

	// An unreachable worker is transport.
	dead := NewClient("http://127.0.0.1:1")
	_, err = dead.RunJob(context.Background(), job, nil)
	if !IsTransport(err) {
		t.Fatalf("connection failure not classified as transport: %v", err)
	}
	if _, err := dead.Health(context.Background()); !IsTransport(err) {
		t.Fatalf("health failure not classified as transport: %v", err)
	}
}

func TestServerUnknownIDSuggestions(t *testing.T) {
	srv := NewServer(ServerConfig{Name: "w", CheckpointEvery: 500})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := NewClient(ts.URL)

	job := testJob(t, "sci-em3d", sim.PrefSpec{Kind: sim.None})
	if _, err := c.RunJob(context.Background(), job, nil); err != nil {
		t.Fatal(err)
	}

	// GET /jobs/{typo} suggests the real id.
	resp, err := ts.Client().Get(ts.URL + "/jobs/job-11")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf [512]byte
	n, _ := resp.Body.Read(buf[:])
	body := string(buf[:n])
	if resp.StatusCode != 404 || !strings.Contains(body, `"job-1"`) {
		t.Fatalf("status %d body %q, want 404 with a job-1 suggestion", resp.StatusCode, body)
	}

	// GET /ckpts/{near-miss} names the nearest resident address.
	key := jobKey(t, job)
	typo := "0" + key[1:]
	resp2, err := ts.Client().Get(ts.URL + "/ckpts/" + typo)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	n, _ = resp2.Body.Read(buf[:])
	body = string(buf[:n])
	if resp2.StatusCode != 404 || !strings.Contains(body, "nearest resident address") {
		t.Fatalf("status %d body %q, want 404 with nearest-address hint", resp2.StatusCode, body)
	}
}

func TestResultJSONRoundTrip(t *testing.T) {
	job := testJob(t, "sci-em3d", sim.PrefSpec{Kind: sim.STMS, SampleProb: 0.125})
	res, err := run1(context.Background(), job.Config, sim.FromSpec(*job.Spec), job.Pref)
	if err != nil {
		t.Fatal(err)
	}
	r := Result{Version: ResultFormatVersion, Res: res, Worker: "w", WallMS: 1.5}
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r, back) {
		t.Fatalf("result not identical after round trip:\n got %+v\nwant %+v", back, r)
	}
}
