package stream_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"runtime"
	"testing"
	"time"

	"stms/internal/sim"
	"stms/internal/stream"
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

// testTape materializes a small tape shared by the loopback tests.
func testTape(t *testing.T, cores int, perCore uint64) *trace.Tape {
	t.Helper()
	spec, err := trace.ByName("web-apache")
	if err != nil {
		t.Fatal(err)
	}
	return trace.NewTape(spec.Scaled(0.0625), 7, cores, perCore)
}

func testCfg(cores int, perCore uint64) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Scale = 0.0625
	cfg.Seed = 7
	cfg.Cores = cores
	cfg.WarmRecords = perCore / 2
	cfg.MeasureRecords = perCore - perCore/2
	return cfg
}

// serveTape runs an outlet over the tape on a loopback listener,
// injecting the given connection cuts, and reports Serve's result.
func serveTape(t *testing.T, tape *trace.Tape, cuts ...uint64) (addr string, done chan error, out *stream.Outlet) {
	t.Helper()
	return serveSource(t, stream.TapeSource(tape), cuts...)
}

// serveSource is serveTape for any source.
func serveSource(t *testing.T, src stream.Source, cuts ...uint64) (addr string, done chan error, out *stream.Outlet) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	out = stream.NewOutlet(src, stream.Timeouts{})
	out.InjectCuts(cuts...)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	done = make(chan error, 1)
	go func() { done <- out.Serve(ctx, lis) }()
	return lis.Addr().String(), done, out
}

// runStream consumes a stream at addr through the timed driver.
func runStream(t *testing.T, addr string, cfg sim.Config) (sim.Results, *stream.Inlet) {
	t.Helper()
	in, err := stream.DialInlet(addr, stream.InletConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(in.Close)
	h := in.Hello()
	run := sim.SourceRun{Spec: h.Spec, Marks: h.Marks, Sources: in.Sources(), PerCore: h.PerCore}
	res, err := run1(context.Background(), cfg, sim.FromSources(run), sim.PrefSpec{Kind: sim.STMS, SampleProb: 0.125})
	if err != nil {
		t.Fatal(err)
	}
	return res, in
}

func waitServe(t *testing.T, done chan error) {
	t.Helper()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("outlet serve: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("outlet did not finish after the stream was consumed")
	}
}

// TestLoopbackBitIdentical is the protocol's core correctness claim:
// streaming a trace over TCP loopback produces the identical Results
// struct as running the same trace directly. It holds for every source
// stms-trace -wire serves, across an injected connection cut, and with
// a scenario's per-phase windows intact.
func TestLoopbackBitIdentical(t *testing.T) {
	const cores, perCore = 2, 4096
	tape := testTape(t, cores, perCore)
	cfg := testCfg(cores, perCore)
	ps := sim.PrefSpec{Kind: sim.STMS, SampleProb: 0.125}

	spec, err := trace.ByName("web-apache")
	if err != nil {
		t.Fatal(err)
	}
	specSrc, err := stream.SpecSource(spec.Scaled(cfg.Scale), cfg.Seed, cores, perCore)
	if err != nil {
		t.Fatal(err)
	}
	scn, err := trace.ScenarioByName("phase-flip")
	if err != nil {
		t.Fatal(err)
	}
	scnSrc, err := stream.ScenarioSource(scn.Scaled(cfg.Scale), cfg.Seed, cores, perCore)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name   string
		direct sim.Input
		src    stream.Source
		cuts   []uint64
	}{
		{"tape", sim.FromTape(tape), stream.TapeSource(tape), nil},
		{"spec", sim.FromSpec(spec), specSrc, []uint64{3}},
		{"scenario", sim.FromScenario(scn), scnSrc, []uint64{3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			direct, err := run1(context.Background(), cfg, tc.direct, ps)
			if err != nil {
				t.Fatal(err)
			}
			if tc.name == "scenario" && len(direct.Phases) < 2 {
				t.Fatalf("scenario run reports %d phase windows; want the per-phase comparison to bite", len(direct.Phases))
			}

			addr, done, _ := serveSource(t, tc.src, tc.cuts...)
			streamed, in := runStream(t, addr, cfg)
			waitServe(t, done)
			if !reflect.DeepEqual(direct, streamed) {
				t.Fatalf("streamed results differ from the direct run:\ndirect:   %+v\nstreamed: %+v", direct, streamed)
			}
			if got, want := in.Reconnects(), uint64(len(tc.cuts)); got != want {
				t.Fatalf("run with %d injected cut(s) reconnected %d times", want, got)
			}
		})
	}
}

// splitmix64 is the seeded offset generator for the fault sweep.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	z := x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// TestReconnectSweepBitIdentical injects a connection cut after a
// seeded sweep of frame offsets — early, mid-stream, near the end — and
// requires every recovery to converge to the exact direct-replay
// Results. The functional driver keeps the sweep fast; its Results are
// just as sensitive to a lost, duplicated or reordered record.
func TestReconnectSweepBitIdentical(t *testing.T) {
	const cores, perCore = 2, 4096
	totalFrames := uint64(cores) * ((perCore + trace.FrameCap - 1) / trace.FrameCap)
	tape := testTape(t, cores, perCore)
	cfg := testCfg(cores, perCore)
	ps := sim.PrefSpec{Kind: sim.STMS, SampleProb: 0.125}

	direct, err := run1(context.Background(), cfg, sim.FromTape(tape), ps, sim.WithMode(sim.Functional))
	if err != nil {
		t.Fatal(err)
	}

	offsets := map[uint64]bool{1: true, totalFrames - 1: true} // always hit the edges
	for s := uint64(0); len(offsets) < 6; s++ {
		offsets[1+splitmix64(s)%totalFrames] = true
	}
	for off := range offsets {
		t.Run(fmt.Sprintf("cut-after-%d", off), func(t *testing.T) {
			addr, done, out := serveTape(t, tape, off)
			in, err := stream.DialInlet(addr, stream.InletConfig{})
			if err != nil {
				t.Fatal(err)
			}
			defer in.Close()
			h := in.Hello()
			run := sim.SourceRun{Spec: h.Spec, Marks: h.Marks, Sources: in.Sources(), PerCore: h.PerCore}
			streamed, err := run1(context.Background(), cfg, sim.FromSources(run), ps, sim.WithMode(sim.Functional))
			if err != nil {
				t.Fatal(err)
			}
			waitServe(t, done)
			if !reflect.DeepEqual(direct, streamed) {
				t.Fatalf("results diverged after cut at frame %d", off)
			}
			if in.Reconnects() != 1 {
				t.Fatalf("want exactly 1 reconnect, got %d", in.Reconnects())
			}
			if out.Resumes() != 1 {
				t.Fatalf("want exactly 1 outlet resume, got %d", out.Resumes())
			}
		})
	}
}

// TestCloseAtBudgetLetsOutletFinish cuts the connection after the last
// frame and has the consumer close its sources the moment it holds
// every announced record, before it could notice the cut. The close
// must wait for the end message, resuming to get it, so the outlet
// finishes cleanly instead of waiting out its reconnect budget.
func TestCloseAtBudgetLetsOutletFinish(t *testing.T) {
	const cores, perCore = 2, 4096
	totalFrames := uint64(cores) * ((perCore + trace.FrameCap - 1) / trace.FrameCap)
	addr, done, out := serveTape(t, testTape(t, cores, perCore), totalFrames)
	in, err := stream.DialInlet(addr, stream.InletConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	srcs := in.Sources()
	for i, s := range srcs {
		for n := uint64(0); n < perCore; {
			f := s.NextFrame()
			if f == nil {
				t.Fatalf("core %d dried up after %d records: %v", i, n, s.Err())
			}
			n += uint64(f.Len())
		}
	}
	for _, s := range srcs {
		s.Close()
	}
	waitServe(t, done)
	if in.Err() != nil || in.Reconnects() != 1 || out.Resumes() != 1 {
		t.Fatalf("err %v, %d reconnects, %d resumes; want nil, 1, 1", in.Err(), in.Reconnects(), out.Resumes())
	}
}

// TestBackpressureBoundsOutlet stalls the consumer and checks the
// credit window caps how far the outlet can run ahead: a stream much
// larger than the window must not be pulled into inlet memory.
func TestBackpressureBoundsOutlet(t *testing.T) {
	const cores, perCore = 1, 65536 // 64 frames
	tape := testTape(t, cores, perCore)
	const window = 4

	addr, _, out := serveTape(t, tape)
	in, err := stream.DialInlet(addr, stream.InletConfig{Window: window})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()

	// Consume two frames, then stall. The pool holds window+cores
	// frames; only recycling grants credit, so the outlet can never be
	// more than the pool size ahead of consumption.
	src := in.Sources()[0]
	for i := 0; i < 2; i++ {
		if src.NextFrame() == nil {
			t.Fatalf("stream dried up early: %v", in.Err())
		}
	}
	time.Sleep(300 * time.Millisecond)
	// resolved window = max(cfg.Window, 2*cores+2) = 4; pool = window+cores.
	if sent, bound := out.FramesSent(), uint64(2+window+cores+1); sent > bound {
		t.Fatalf("outlet ran %d frames ahead of a stalled consumer (bound %d)", sent, bound)
	}
	// Draining the rest must complete the stream.
	n := 2
	for f := src.NextFrame(); f != nil; f = src.NextFrame() {
		n++
	}
	if err := src.Err(); err != nil {
		t.Fatal(err)
	}
	if want := int(perCore / trace.FrameCap); n != want {
		t.Fatalf("consumed %d frames, want %d", n, want)
	}
}

// TestInletCloseNoLeak cancels a stream mid-flight: Close must unblock
// and terminate the reader goroutine (Wait returns), and a stalled
// consumer must see end-of-stream promptly. Run under -race, this also
// proves the teardown path is data-race clean.
func TestInletCloseNoLeak(t *testing.T) {
	const cores, perCore = 2, 65536
	tape := testTape(t, cores, perCore)
	addr, _, _ := serveTape(t, tape)
	in, err := stream.DialInlet(addr, stream.InletConfig{})
	if err != nil {
		t.Fatal(err)
	}
	src := in.Sources()[0]
	if src.NextFrame() == nil {
		t.Fatalf("no first frame: %v", in.Err())
	}
	in.Close()

	done := make(chan struct{})
	go func() {
		in.Wait()
		// After the reader exits, a consumer drains buffered frames and
		// then sees nil; it must never block forever.
		for f := src.NextFrame(); f != nil; f = src.NextFrame() {
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("inlet reader leaked: Wait/NextFrame did not return after Close")
	}
	if err := in.Err(); err == nil || !errors.Is(err, stream.ErrClosed) {
		t.Fatalf("want ErrClosed after mid-stream Close, got %v", err)
	}
}

// TestServeGivesUpOnAbandonedStream: a consumer that closes before the
// end of the stream never comes back, so Serve must return the dropped
// connection's error once the Reconnect budget runs out, instead of
// accepting forever, and leave no goroutine behind.
func TestServeGivesUpOnAbandonedStream(t *testing.T) {
	const budget = 300 * time.Millisecond
	before := runtime.NumGoroutine()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	out := stream.NewOutlet(stream.TapeSource(testTape(t, 2, 65536)), stream.Timeouts{Reconnect: budget})
	done := make(chan error, 1)
	go func() { done <- out.Serve(context.Background(), lis) }()

	in, err := stream.DialInlet(lis.Addr().String(), stream.InletConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if in.Sources()[0].NextFrame() == nil {
		t.Fatalf("no first frame: %v", in.Err())
	}
	in.Close()
	in.Wait()
	closed := time.Now()
	select {
	case err := <-done:
		if err == nil || errors.Is(err, stream.ErrProtocol) {
			t.Fatalf("abandoned stream: want the dropped connection's transport error, got %v", err)
		}
		if waited := time.Since(closed); waited < budget/2 {
			t.Fatalf("Serve gave up after %v, before the %v reconnect budget", waited, budget)
		}
		t.Logf("Serve returned %v after the consumer left: %v", time.Since(closed).Round(time.Millisecond), err)
	case <-time.After(budget + 5*time.Second):
		t.Fatal("Serve still accepting long after the reconnect budget ran out")
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServeOutlastsReadinessProbe: a connection that closes without
// completing the handshake (a readiness probe) is no consumer, so it
// must not start the reconnect budget: the real consumer that arrives
// well after the budget would have run out still gets the whole
// stream, bit-identical to the direct run.
func TestServeOutlastsReadinessProbe(t *testing.T) {
	const cores, perCore = 2, 4096
	const budget = 100 * time.Millisecond
	tape := testTape(t, cores, perCore)
	cfg := testCfg(cores, perCore)
	direct, err := run1(context.Background(), cfg, sim.FromTape(tape), sim.PrefSpec{Kind: sim.STMS, SampleProb: 0.125})
	if err != nil {
		t.Fatal(err)
	}

	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	out := stream.NewOutlet(stream.TapeSource(tape), stream.Timeouts{Reconnect: budget})
	done := make(chan error, 1)
	go func() { done <- out.Serve(context.Background(), lis) }()

	probe, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	probe.Close()
	time.Sleep(4 * budget)

	streamed, _ := runStream(t, lis.Addr().String(), cfg)
	waitServe(t, done)
	if !reflect.DeepEqual(direct, streamed) {
		t.Fatalf("streamed results after a probe differ from the direct run:\ndirect:   %+v\nstreamed: %+v", direct, streamed)
	}
}

// TestDialInletBeforeListener: a consumer started before its producer
// listens retries its first dial inside the Reconnect budget, so no
// readiness wait is needed between starting the two.
func TestDialInletBeforeListener(t *testing.T) {
	const cores, perCore = 2, 4096
	tape := testTape(t, cores, perCore)
	cfg := testCfg(cores, perCore)
	direct, err := run1(context.Background(), cfg, sim.FromTape(tape), sim.PrefSpec{Kind: sim.STMS, SampleProb: 0.125})
	if err != nil {
		t.Fatal(err)
	}

	// Reserve a loopback port, then free it: the consumer dials an
	// address nothing listens on yet.
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	lis.Close()

	type dialed struct {
		res sim.Results
		err error
	}
	got := make(chan dialed, 1)
	go func() {
		in, err := stream.DialInlet(addr, stream.InletConfig{})
		if err != nil {
			got <- dialed{err: err}
			return
		}
		defer in.Close()
		h := in.Hello()
		run := sim.SourceRun{Spec: h.Spec, Marks: h.Marks, Sources: in.Sources(), PerCore: h.PerCore}
		res, err := run1(context.Background(), cfg, sim.FromSources(run), sim.PrefSpec{Kind: sim.STMS, SampleProb: 0.125})
		got <- dialed{res, err}
	}()

	time.Sleep(300 * time.Millisecond)
	lis, err = net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("the freed port was taken in the meantime: %v", err)
	}
	out := stream.NewOutlet(stream.TapeSource(tape), stream.Timeouts{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- out.Serve(ctx, lis) }()

	d := <-got
	if d.err != nil {
		t.Fatalf("consumer started before the listener: %v", d.err)
	}
	waitServe(t, done)
	if !reflect.DeepEqual(direct, d.res) {
		t.Fatalf("streamed results differ from the direct run:\ndirect:   %+v\nstreamed: %+v", direct, d.res)
	}
}

// erroringGen yields n records, then dies with an error: the outlet
// must abort the stream, and the consumer must see the failure.
type erroringGen struct {
	n   int
	err error
}

func (g *erroringGen) ReadFrame(f *trace.Frame) int {
	n := min(g.n, f.Cap())
	if n == 0 {
		g.err = errors.New("generator hardware fault")
	}
	for i := 0; i < n; i++ {
		g.n--
		f.Block[i], f.PC[i], f.Instrs[i], f.Work[i], f.Dep[i] = uint64(g.n), 1, 1, 1, false
	}
	f.SetLen(n)
	return n
}

func (g *erroringGen) Err() error { return g.err }

// TestOutletAbortPropagates: a producer whose generator dies mid-stream
// must surface an explicit abort at the consumer — not a clean,
// truncated end of stream.
func TestOutletAbortPropagates(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	src := stream.GeneratorSource("dying", 0.25, []trace.Generator{&erroringGen{n: 3000}})
	out := stream.NewOutlet(src, stream.Timeouts{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- out.Serve(ctx, lis) }()

	in, err := stream.DialInlet(lis.Addr().String(), stream.InletConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	s := in.Sources()[0]
	for f := s.NextFrame(); f != nil; f = s.NextFrame() {
	}
	if err := s.Err(); !errors.Is(err, stream.ErrAborted) {
		t.Fatalf("want ErrAborted from a dying producer, got %v", err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, stream.ErrAborted) {
			t.Fatalf("outlet serve: want ErrAborted, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("outlet did not exit after aborting")
	}
}

// TestOneWayStream pipes WriteAll output into a ReaderInlet — the
// stdin transport — and checks the full stream arrives intact.
func TestOneWayStream(t *testing.T) {
	const cores, perCore = 2, 3000
	tape := testTape(t, cores, perCore)
	out := stream.NewOutlet(stream.TapeSource(tape), stream.Timeouts{})

	pr, pw := net.Pipe()
	werr := make(chan error, 1)
	go func() {
		err := out.WriteAll(pw)
		pw.Close()
		werr <- err
	}()
	in, err := stream.ReaderInlet(pr, stream.InletConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	if !in.Hello().OneWay {
		t.Fatal("WriteAll stream must announce one_way")
	}
	var total uint64
	for _, s := range in.Sources() {
		for f := s.NextFrame(); f != nil; f = s.NextFrame() {
			total += uint64(f.Len())
		}
		if err := s.Err(); err != nil {
			t.Fatal(err)
		}
	}
	if total != cores*perCore {
		t.Fatalf("one-way stream delivered %d records, want %d", total, cores*perCore)
	}
	if err := <-werr; err != nil {
		t.Fatalf("WriteAll: %v", err)
	}
}

// TestOutletRestartResume kills the whole outlet (not just the
// connection) and starts a fresh one over the same tape: the inlet's
// reconnect must land on the new outlet and resume to bit-identical
// results, exercising the deterministic re-walk path past the frame
// ring. Both outlets serve one listening socket, so the port is never
// released between them (re-listening on a released port can fail with
// "address already in use", leaving the inlet nothing to resume to).
func TestOutletRestartResume(t *testing.T) {
	const cores, perCore = 2, 4096
	tape := testTape(t, cores, perCore)
	cfg := testCfg(cores, perCore)
	ps := sim.PrefSpec{Kind: sim.STMS, SampleProb: 0.125}
	direct, err := run1(context.Background(), cfg, sim.FromTape(tape), ps, sim.WithMode(sim.Functional))
	if err != nil {
		t.Fatal(err)
	}

	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()

	// The first outlet serves one connection and dies abruptly after
	// frame 3. The inlet's reconnect waits in the socket's backlog until
	// the replacement outlet accepts it.
	done := make(chan error, 1)
	go func() {
		out1 := stream.NewOutlet(stream.TapeSource(tape), stream.Timeouts{})
		out1.InjectCuts(3)
		conn, err := lis.Accept()
		if err != nil {
			done <- err
			return
		}
		finished, err := out1.ServeConn(conn)
		conn.Close()
		if finished {
			done <- fmt.Errorf("first outlet finished instead of dying: %v", err)
			return
		}
		out2 := stream.NewOutlet(stream.TapeSource(tape), stream.Timeouts{})
		done <- out2.Serve(context.Background(), lis)
	}()

	in, err := stream.DialInlet(lis.Addr().String(), stream.InletConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()

	h := in.Hello()
	run := sim.SourceRun{Spec: h.Spec, Marks: h.Marks, Sources: in.Sources(), PerCore: h.PerCore}
	streamed, err := run1(context.Background(), cfg, sim.FromSources(run), ps, sim.WithMode(sim.Functional))
	if err != nil {
		t.Fatal(err)
	}
	waitServe(t, done)
	if !reflect.DeepEqual(direct, streamed) {
		t.Fatal("results diverged across an outlet restart")
	}
	if in.Reconnects() == 0 {
		t.Fatal("expected at least one reconnect")
	}
}
