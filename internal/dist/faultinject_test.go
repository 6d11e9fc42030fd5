package dist

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"stms/internal/sim"
)

func TestInjectorWindowAndMatching(t *testing.T) {
	in := NewInjector(nil,
		FaultRule{Kind: FaultRefuse, Path: "/jobs", From: 1, Until: 3})
	var fires []bool
	for i := 0; i < 4; i++ {
		fires = append(fires, len(in.decide("/jobs")) > 0)
	}
	if !reflect.DeepEqual(fires, []bool{false, true, true, false}) {
		t.Fatalf("[1,3) window fired %v", fires)
	}
	// A non-matching path neither fires nor advances the counter.
	if len(in.decide("/ckpts/0123")) != 0 {
		t.Fatal("rule fired for a non-matching path")
	}
	if got := in.Fired()[FaultRefuse]; got != 2 {
		t.Fatalf("fired count = %d, want 2", got)
	}
}

func TestInjectorCutAndCorruptBodies(t *testing.T) {
	payload := strings.Repeat("0123456789", 10)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, payload)
	}))
	defer ts.Close()

	get := func(in *Injector) ([]byte, error) {
		c := &http.Client{Transport: in}
		resp, err := c.Get(ts.URL + "/data")
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		return io.ReadAll(resp.Body)
	}

	// Cut: exactly After bytes arrive intact, then the stream errors.
	cut := NewInjector(nil, FaultRule{Kind: FaultCut, After: 7})
	got, err := get(cut)
	if err == nil {
		t.Fatal("cut stream read to completion")
	}
	if string(got) != payload[:7] {
		t.Fatalf("cut delivered %q, want the first 7 bytes intact", got)
	}

	// Corrupt: After bytes intact, everything after flipped.
	cor := NewInjector(nil, FaultRule{Kind: FaultCorrupt, After: 7})
	got, err = get(cor)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(payload) || string(got[:7]) != payload[:7] {
		t.Fatalf("corrupt body prefix damaged: %q", got)
	}
	if string(got[7:]) == payload[7:] {
		t.Fatal("bytes past the corruption threshold arrived intact")
	}

	// Refuse: no response at all.
	ref := NewInjector(nil, FaultRule{Kind: FaultRefuse})
	if _, err := get(ref); err == nil {
		t.Fatal("refused request succeeded")
	}
}

// eventStub is a hand-rolled worker endpoint streaming scripted event
// lines, for failure modes the real server can't be asked to produce.
func eventStub(t *testing.T, script func(w http.ResponseWriter, r *http.Request, flush func())) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/jobs" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		f, _ := w.(http.Flusher)
		script(w, r, func() {
			if f != nil {
				f.Flush()
			}
		})
	}))
	t.Cleanup(ts.Close)
	return ts
}

func TestClientStallAbortsBounded(t *testing.T) {
	// A worker whose response stream goes silent mid-event: the stub
	// writes part of the first event and then holds the connection
	// open until the client gives up. The stall detector must abort the
	// cell within its window rather than hanging the run forever.
	ts := eventStub(t, func(w http.ResponseWriter, r *http.Request, flush func()) {
		fmt.Fprint(w, `{"stms_event":1,"ev`)
		flush()
		<-r.Context().Done()
	})
	c := NewClient(ts.URL, WithTimeouts(Timeouts{Stall: 200 * time.Millisecond}))

	start := time.Now()
	_, err := c.RunJob(context.Background(), testJob(t, "sci-em3d", sim.PrefSpec{Kind: sim.None}), nil)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("stalled stream succeeded")
	}
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("stall classified as %v, want ErrStalled", err)
	}
	if !IsTransport(err) {
		t.Fatalf("stall not classified as transport: %v", err)
	}
	if elapsed < 200*time.Millisecond || elapsed > 5*time.Second {
		t.Fatalf("stall detector took %s, want bounded by the 200ms window", elapsed)
	}
}

func TestInjectedStallEndsAtFirstProgress(t *testing.T) {
	// An injected stall is a position in the job, not a wall-clock
	// window: the worker's events after the first 10 bytes are
	// withheld, and the stream ends with ErrStalled at the worker's
	// first progress event — after it has simulated and checkpointed
	// records — however long the stall window is.
	srv := NewServer(ServerConfig{Name: "w", CheckpointEvery: 500})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	in := NewInjector(BaseTransport(), FaultRule{Kind: FaultStall, Path: "/jobs", After: 10})
	c := NewClient(ts.URL, WithTransport(in))

	job := testJob(t, "sci-em3d", sim.PrefSpec{Kind: sim.None})
	var kinds []string
	_, err := c.RunJob(context.Background(), job, func(ev Event) { kinds = append(kinds, ev.Kind) })
	if !errors.Is(err, ErrStalled) || !IsTransport(err) {
		t.Fatalf("injected stall error = %v, want a transport ErrStalled", err)
	}
	if len(kinds) != 0 {
		t.Fatalf("events delivered past the stall: %v", kinds)
	}
	if got := in.Fired()[FaultStall]; got != 1 {
		t.Fatalf("stall fired %d times, want 1", got)
	}
	if _, ok := srv.Store().GetCkpt(jobKey(t, job)); !ok {
		t.Fatal("no checkpoint in the worker's store at the stall")
	}
}

func TestClientCutBetweenEvents(t *testing.T) {
	ts := eventStub(t, func(w http.ResponseWriter, _ *http.Request, flush func()) {
		fmt.Fprintf(w, `{"stms_event":1,"event":"started","job_id":"j"}`+"\n")
		flush()
		panic(http.ErrAbortHandler) // connection dies between events
	})
	c := NewClient(ts.URL, WithTimeouts(Timeouts{Stall: time.Second}))
	var kinds []string
	_, err := c.RunJob(context.Background(), testJob(t, "sci-em3d", sim.PrefSpec{Kind: sim.None}),
		func(ev Event) { kinds = append(kinds, ev.Kind) })
	if err == nil || !IsTransport(err) {
		t.Fatalf("cut stream error = %v, want transport", err)
	}
	if errors.Is(err, ErrStalled) {
		t.Fatalf("clean cut misclassified as stall: %v", err)
	}
	if len(kinds) != 1 || kinds[0] != "started" {
		t.Fatalf("events before the cut = %v", kinds)
	}
}

func TestClientMalformedTerminalEvent(t *testing.T) {
	// A "done" event with no result payload is a protocol break, not a
	// job result — transport, so the cell retries elsewhere.
	ts := eventStub(t, func(w http.ResponseWriter, _ *http.Request, flush func()) {
		fmt.Fprintf(w, `{"stms_event":1,"event":"done"}`+"\n")
	})
	c := NewClient(ts.URL)
	_, err := c.RunJob(context.Background(), testJob(t, "sci-em3d", sim.PrefSpec{Kind: sim.None}), nil)
	if err == nil || !IsTransport(err) {
		t.Fatalf("malformed done error = %v, want transport", err)
	}

	// So is an event speaking the wrong protocol version.
	ts2 := eventStub(t, func(w http.ResponseWriter, _ *http.Request, flush func()) {
		fmt.Fprintf(w, `{"stms_event":99,"event":"started"}`+"\n")
	})
	c2 := NewClient(ts2.URL)
	_, err = c2.RunJob(context.Background(), testJob(t, "sci-em3d", sim.PrefSpec{Kind: sim.None}), nil)
	if err == nil || !IsTransport(err) {
		t.Fatalf("wrong event version error = %v, want transport", err)
	}
}

func TestClientCancellationRacesHeartbeat(t *testing.T) {
	// A worker emitting steady heartbeats keeps the stall detector
	// happy; cancelling the job context must still end RunJob promptly,
	// classified as cancellation rather than stall or cut.
	ts := eventStub(t, func(w http.ResponseWriter, _ *http.Request, flush func()) {
		for i := 0; ; i++ {
			if _, err := fmt.Fprintf(w, `{"stms_event":1,"event":"progress","done":%d,"total":100}`+"\n", i); err != nil {
				return
			}
			flush()
			time.Sleep(10 * time.Millisecond)
		}
	})
	c := NewClient(ts.URL, WithTimeouts(Timeouts{Stall: time.Second}))
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(80 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := c.RunJob(ctx, testJob(t, "sci-em3d", sim.PrefSpec{Kind: sim.None}), nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled job error = %v, want context.Canceled", err)
	}
	if IsTransport(err) {
		t.Fatalf("cancellation misclassified as transport: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("cancellation took %s", elapsed)
	}
}

func TestServerAuth(t *testing.T) {
	srv := NewServer(ServerConfig{Name: "locked", Token: "s3cret"})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	job := testJob(t, "sci-em3d", sim.PrefSpec{Kind: sim.None})

	// /healthz stays open — load balancers and breaker probes don't
	// carry credentials.
	anon := NewClient(ts.URL)
	if _, err := anon.Health(context.Background()); err != nil {
		t.Fatalf("unauthenticated health check failed: %v", err)
	}

	// Everything else rejects missing or wrong tokens with a
	// deterministic (non-transport) error: retrying elsewhere would be
	// rejected identically, so the coordinator must not burn retries.
	if _, err := anon.RunJob(context.Background(), job, nil); err == nil || IsTransport(err) {
		t.Fatalf("unauthenticated job error = %v, want plain 401 rejection", err)
	}
	wrong := NewClient(ts.URL, WithAuth("nope"))
	if _, err := wrong.RunJob(context.Background(), job, nil); err == nil || IsTransport(err) {
		t.Fatalf("wrong-token job error = %v, want plain 401 rejection", err)
	}
	if _, err := wrong.FetchCkpt(context.Background(), strings.Repeat("0", 64)); err == nil || IsTransport(err) {
		t.Fatalf("wrong-token fetch error = %v, want plain 401 rejection", err)
	}

	ok := NewClient(ts.URL, WithAuth("s3cret"))
	res, err := ok.RunJob(context.Background(), job, nil)
	if err != nil {
		t.Fatalf("authenticated job failed: %v", err)
	}
	if res.Worker != "locked" {
		t.Fatalf("result worker = %q", res.Worker)
	}
}
