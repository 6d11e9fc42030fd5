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
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	out = stream.NewOutlet(stream.TapeSource(tape), stream.Timeouts{})
	out.InjectCuts(cuts...)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	done = make(chan error, 1)
	go func() { done <- out.Serve(ctx, lis) }()
	return lis.Addr().String(), done, out
}

// runStream consumes a stream at addr through the timed driver.
func runStream(t *testing.T, addr string, cfg sim.Config, tape *trace.Tape) (sim.Results, *stream.Inlet) {
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
// streaming a tape over TCP loopback produces the identical Results
// struct as replaying the same tape directly.
func TestLoopbackBitIdentical(t *testing.T) {
	const cores, perCore = 2, 4096
	tape := testTape(t, cores, perCore)
	cfg := testCfg(cores, perCore)
	ps := sim.PrefSpec{Kind: sim.STMS, SampleProb: 0.125}

	direct, err := run1(context.Background(), cfg, sim.FromTape(tape), ps)
	if err != nil {
		t.Fatal(err)
	}

	addr, done, _ := serveTape(t, tape)
	streamed, in := runStream(t, addr, cfg, tape)
	waitServe(t, done)
	if !reflect.DeepEqual(direct, streamed) {
		t.Fatalf("streamed results differ from direct replay:\ndirect:   %+v\nstreamed: %+v", direct, streamed)
	}
	if in.Reconnects() != 0 {
		t.Fatalf("clean loopback run reconnected %d times", in.Reconnects())
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

// erroringGen yields n records, then dies with an error: the outlet
// must abort the stream, and the consumer must see the failure.
type erroringGen struct {
	n   int
	err error
}

func (g *erroringGen) Next(r *trace.Record) bool {
	if g.n == 0 {
		g.err = errors.New("generator hardware fault")
		return false
	}
	g.n--
	*r = trace.Record{Block: uint64(g.n), PC: 1, Instrs: 1, Work: 1}
	return true
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
// reconnect must land on the new process and resume to bit-identical
// results, exercising the deterministic re-walk path past the frame
// ring.
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
	addr := lis.Addr().String()

	// First outlet: dies abruptly after frame 3 and its listener closes.
	ctx1, cancel1 := context.WithCancel(context.Background())
	out1 := stream.NewOutlet(stream.TapeSource(tape), stream.Timeouts{})
	out1.InjectCuts(3)
	done1 := make(chan error, 1)
	go func() { done1 <- out1.Serve(ctx1, lis) }()

	in, err := stream.DialInlet(addr, stream.InletConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()

	// Kill the first outlet entirely once its cut has fired, then bring
	// up a replacement on the same address.
	go func() {
		for out1.FramesSent() < 3 {
			time.Sleep(5 * time.Millisecond)
		}
		cancel1()
		<-done1
		lis2, err := net.Listen("tcp", addr)
		if err != nil {
			return
		}
		out2 := stream.NewOutlet(stream.TapeSource(tape), stream.Timeouts{})
		out2.Serve(context.Background(), lis2)
	}()

	h := in.Hello()
	run := sim.SourceRun{Spec: h.Spec, Marks: h.Marks, Sources: in.Sources(), PerCore: h.PerCore}
	streamed, err := run1(context.Background(), cfg, sim.FromSources(run), ps, sim.WithMode(sim.Functional))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct, streamed) {
		t.Fatal("results diverged across an outlet restart")
	}
	if in.Reconnects() == 0 {
		t.Fatal("expected at least one reconnect")
	}
}
