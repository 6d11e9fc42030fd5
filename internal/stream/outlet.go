package stream

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"stms/internal/trace"
)

// Source describes a stream an Outlet can serve: the Hello metadata it
// announces, and a constructor for fresh per-core generators. New must
// be a pure function — every call yields generators that produce the
// identical record sequence — because resume-after-restart re-walks the
// source from the beginning to reach the inlet's position. Sources that
// cannot be rebuilt (a live external feed) return an error from the
// second New call; they resume only within the outlet's frame ring.
type Source struct {
	Hello Hello
	New   func() ([]trace.Generator, error)
}

// TapeSource serves a materialized tape: the cheapest and most common
// outlet, streaming exactly what direct replay would consume.
func TapeSource(t *trace.Tape) Source {
	h := Hello{
		Format:   string(wireMagic[:]),
		Version:  Version,
		Spec:     t.Spec(),
		Marks:    t.Marks(),
		Seed:     t.Seed(),
		Cores:    t.Cores(),
		PerCore:  t.PerCore(),
		FrameCap: trace.FrameCap,
	}
	if scn := t.Scenario(); scn != nil {
		h.Scenario = scn.Name
	}
	return Source{Hello: h, New: func() ([]trace.Generator, error) {
		gens := make([]trace.Generator, t.Cores())
		for i := range gens {
			gens[i] = t.Cursor(i)
		}
		return gens, nil
	}}
}

// SpecSource serves perCore live-generated records per core of the
// (already scaled) spec at seed — the stream equivalent of
// sim.FromSpec's generator wiring.
func SpecSource(spec trace.Spec, seed uint64, cores int, perCore uint64) (Source, error) {
	if err := spec.Validate(); err != nil {
		return Source{}, err
	}
	h := Hello{
		Format: string(wireMagic[:]), Version: Version,
		Spec: spec, Seed: seed, Cores: cores, PerCore: perCore,
		FrameCap: trace.FrameCap,
	}
	return Source{Hello: h, New: func() ([]trace.Generator, error) {
		lib := trace.NewLibrary(spec, seed)
		gens := make([]trace.Generator, cores)
		for i := range gens {
			gens[i] = &trace.Limit{Gen: trace.NewGenerator(lib, i, seed), N: perCore}
		}
		return gens, nil
	}}, nil
}

// ScenarioSource serves a phase-structured scenario (already scaled),
// materialized against the perCore budget so the hello's phase marks
// locate the same boundaries replay would see.
func ScenarioSource(scn trace.Scenario, seed uint64, cores int, perCore uint64) (Source, error) {
	_, marks, err := scn.Generators(seed, cores, perCore)
	if err != nil {
		return Source{}, err
	}
	h := Hello{
		Format: string(wireMagic[:]), Version: Version,
		Spec: scn.EffectiveSpec(cores, perCore), Scenario: scn.Name, Marks: marks,
		Seed: seed, Cores: cores, PerCore: perCore,
		FrameCap: trace.FrameCap,
	}
	return Source{Hello: h, New: func() ([]trace.Generator, error) {
		gens, _, err := scn.Generators(seed, cores, perCore)
		if err != nil {
			return nil, err
		}
		for i, g := range gens {
			gens[i] = &trace.Limit{Gen: g, N: perCore}
		}
		return gens, nil
	}}, nil
}

// GeneratorSource serves externally supplied generators (an imported
// ChampSim trace, a live feed) as a one-shot stream: name labels the
// results, dirtyFrac sets the consumer's writeback model. The source is
// not rebuildable, so resume reaches only as far back as the outlet's
// frame ring.
func GeneratorSource(name string, dirtyFrac float64, gens []trace.Generator) Source {
	h := Hello{
		Format: string(wireMagic[:]), Version: Version,
		Spec:  trace.Spec{Name: name, DirtyFrac: dirtyFrac},
		Cores: len(gens), FrameCap: trace.FrameCap,
	}
	used := false
	return Source{Hello: h, New: func() ([]trace.Generator, error) {
		if used {
			return nil, fmt.Errorf("stream: generator source %q is one-shot and cannot be re-walked for resume", name)
		}
		used = true
		return gens, nil
	}}
}

// ringDepth is how many recent encoded frames the outlet retains for
// replay-on-reconnect. Beyond it, resume falls back to re-walking the
// source. At the default frame capacity this is ~1.4 MB.
const ringDepth = 64

// frameRing is a bounded ring of encoded frame messages keyed by their
// global sequence number.
type frameRing struct {
	seqs []uint64
	msgs [][]byte
}

func newFrameRing(depth int) *frameRing {
	return &frameRing{seqs: make([]uint64, depth), msgs: make([][]byte, depth)}
}

func (r *frameRing) add(seq uint64, msg []byte) {
	i := seq % uint64(len(r.seqs))
	r.seqs[i] = seq
	r.msgs[i] = append(r.msgs[i][:0], msg...)
}

func (r *frameRing) get(seq uint64) []byte {
	if seq == 0 {
		return nil
	}
	if i := seq % uint64(len(r.seqs)); r.seqs[i] == seq {
		return r.msgs[i]
	}
	return nil
}

// walker drains a source frame by frame in the canonical order: cores
// round-robin, each frame filled by the generator's ReadFrame, dry
// cores dropping out. The order is a pure function of
// the source, which is what makes re-walk resume exact.
type walker struct {
	gens  []trace.Generator
	alive []bool
	live  int
	next  int
	frame *trace.Frame
	buf   []byte
	seq   uint64 // sequence of the last frame produced
	err   error  // terminal generator failure (trace.ErrReporter)
}

func newWalker(src Source) (*walker, error) {
	gens, err := src.New()
	if err != nil {
		return nil, err
	}
	w := &walker{
		gens:  gens,
		alive: make([]bool, len(gens)),
		live:  len(gens),
		frame: trace.NewFrameCap(src.Hello.FrameCap),
	}
	for i := range w.alive {
		w.alive[i] = true
	}
	return w, nil
}

// step encodes the next frame message, returning the message bytes and
// the core it belongs to, or nil at end of stream (w.err distinguishes
// a dead producer from a drained one). The bytes alias the walker's
// buffer: valid until the next call.
func (w *walker) step() ([]byte, int) {
	for w.live > 0 {
		c := w.next
		if !w.alive[c] {
			w.next = (w.next + 1) % len(w.gens)
			continue
		}
		if w.gens[c].ReadFrame(w.frame) == 0 {
			if er, ok := w.gens[c].(trace.ErrReporter); ok && w.err == nil {
				w.err = er.Err()
			}
			w.alive[c] = false
			w.live--
			w.next = (w.next + 1) % len(w.gens)
			continue
		}
		w.seq++
		w.buf = appendFrameMsg(w.buf[:0], uint32(c), w.seq, w.frame)
		w.next = (w.next + 1) % len(w.gens)
		return w.buf, c
	}
	return nil, -1
}

// errInjectedCut marks a deliberately dropped connection (chaos
// testing); Serve treats it like any transport failure.
var errInjectedCut = errors.New("stream: injected connection cut")

// Outlet serves one Source to one consumer at a time over the STMSWIRE
// protocol, surviving reconnects: walker and ring state persist across
// connections, so a returning inlet resumes exactly where the stream
// broke.
type Outlet struct {
	src Source
	to  Timeouts

	mu   sync.Mutex // serializes connections; guards everything below
	w    *walker
	ring *frameRing
	cuts []uint64 // chaos: drop the conn right after sending these seqs

	// Stats are atomic, not mu-guarded: mu is held for the whole life
	// of a connection, and callers read these mid-stream.
	frames  atomic.Uint64 // frame messages sent, replays included
	resumes atomic.Uint64 // connections that resumed past sequence 0
}

// NewOutlet wraps src for serving. A zero Reconnect budget takes the
// default.
func NewOutlet(src Source, to Timeouts) *Outlet {
	return &Outlet{src: src, to: to.withDefaults(), ring: newFrameRing(ringDepth)}
}

// InjectCuts arms deterministic fault injection: the outlet drops the
// connection (as a crash would) immediately after sending each listed
// global frame sequence. Sorted ascending; each fires once.
func (o *Outlet) InjectCuts(seqs ...uint64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.cuts = append(o.cuts, seqs...)
}

// FramesSent returns the total frame messages written, replays included.
func (o *Outlet) FramesSent() uint64 { return o.frames.Load() }

// Resumes returns how many connections picked up mid-stream.
func (o *Outlet) Resumes() uint64 { return o.resumes.Load() }

// Hello returns the metadata the outlet announces.
func (o *Outlet) Hello() Hello { return o.src.Hello }

// ServeConn runs the protocol on one established connection: hello,
// welcome, resume positioning, then credit-gated frames. It returns
// finished=true when the stream has been fully delivered (cleanly or by
// producer abort) and serving should stop; finished=false means the
// connection dropped mid-stream and a reconnect can resume.
func (o *Outlet) ServeConn(conn net.Conn) (finished bool, err error) {
	wel, err := o.greet(conn)
	if err != nil {
		return false, err
	}
	return o.serveAttached(conn, wel)
}

// greet runs the handshake: hello out, welcome in. Until it succeeds
// the peer is no consumer — a readiness probe that connects and
// closes fails here.
func (o *Outlet) greet(conn net.Conn) (Welcome, error) {
	var wel Welcome
	_ = conn.SetDeadline(time.Now().Add(handshakeTimeout))
	if err := writeEnvelope(conn, o.src.Hello); err != nil {
		return wel, err
	}
	body, err := readEnvelope(conn)
	if err != nil {
		return wel, err
	}
	if err := json.Unmarshal(body, &wel); err != nil {
		return wel, fmt.Errorf("%w: welcome: %v", ErrProtocol, err)
	}
	if err := wel.validate(); err != nil {
		return wel, err
	}
	_ = conn.SetDeadline(time.Time{})
	return wel, nil
}

// serveAttached streams to a consumer that completed the handshake.
func (o *Outlet) serveAttached(conn net.Conn, wel Welcome) (bool, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	replay, err := o.position(wel.ResumeSeq)
	if err != nil {
		return true, err
	}
	if wel.ResumeSeq > 0 {
		o.resumes.Add(1)
	}
	return o.pump(conn, replay, wel.ResumeSeq, int64(wel.Window))
}

// position aligns the outlet with the inlet's last contiguous sequence
// R and returns any ring-buffered messages to replay (R+1 .. current).
// Three cases: a fresh walker advances to R discarding output; a walker
// ahead of R replays from the ring; a ring gap forces a deterministic
// re-walk from the beginning.
func (o *Outlet) position(resume uint64) (replay [][]byte, err error) {
	if o.w != nil && o.w.seq < resume {
		return nil, fmt.Errorf("%w: inlet resumes at %d but only %d frames were ever sent", ErrProtocol, resume, o.w.seq)
	}
	if o.w != nil && o.w.seq > resume {
		for s := resume + 1; s <= o.w.seq; s++ {
			msg := o.ring.get(s)
			if msg == nil {
				// Ring rotated past the resume point (or a restarted
				// outlet lost it): rebuild and re-walk.
				o.w = nil
				replay = nil
				break
			}
			replay = append(replay, msg)
		}
		if o.w != nil {
			return replay, nil
		}
	}
	if o.w == nil {
		if o.w, err = newWalker(o.src); err != nil {
			return nil, err
		}
	}
	for o.w.seq < resume {
		msg, _ := o.w.step()
		if msg == nil {
			if o.w.err != nil {
				return nil, o.w.err
			}
			return nil, fmt.Errorf("%w: inlet resumes at %d but the stream holds %d frames", ErrProtocol, resume, o.w.seq)
		}
		o.ring.add(o.w.seq, msg)
	}
	return nil, nil
}

// pump is the send loop: frames while credit lasts, heartbeats while it
// doesn't, credits and keepalives arriving on a reader goroutine.
func (o *Outlet) pump(conn net.Conn, replay [][]byte, sentSeq uint64, credit int64) (bool, error) {
	var granted atomic.Int64
	notify := make(chan struct{}, 1)
	readerDone := make(chan struct{})
	var readerErr error
	go func() {
		defer close(readerDone)
		mr := newMsgReader(conn, o.src.Hello)
		for {
			_ = conn.SetReadDeadline(time.Now().Add(idleTimeout))
			h, _, err := mr.next()
			if err != nil {
				readerErr = err
				return
			}
			switch h.typ {
			case msgCredit:
				granted.Add(int64(h.arg))
				select {
				case notify <- struct{}{}:
				default:
				}
			case msgHeartbeat:
				// Deadline already refreshed.
			default:
				readerErr = fmt.Errorf("%w: unexpected message %#x from inlet", ErrProtocol, h.typ)
				return
			}
		}
	}()
	// The reader owns the conn's read half until we return; closing the
	// conn (our caller does) unblocks it.

	hb := time.NewTicker(heartbeatPeriod)
	defer hb.Stop()
	var ctrl []byte
	nextMsg := func() []byte {
		if len(replay) > 0 {
			m := replay[0]
			replay = replay[1:]
			return m
		}
		msg, _ := o.w.step()
		if msg != nil {
			o.ring.add(o.w.seq, msg)
		}
		return msg
	}
	write := func(b []byte) error {
		_ = conn.SetWriteDeadline(time.Now().Add(idleTimeout))
		_, err := conn.Write(b)
		return err
	}
	for {
		credit += granted.Swap(0)
		for credit == 0 {
			select {
			case <-notify:
				credit += granted.Swap(0)
			case <-hb.C:
				ctrl = appendCtrlMsg(ctrl[:0], msgHeartbeat, 0)
				if err := write(ctrl); err != nil {
					return false, err
				}
			case <-readerDone:
				return false, readerErr
			}
		}
		select {
		case <-readerDone:
			return false, readerErr
		default:
		}
		msg := nextMsg()
		if msg == nil {
			if o.w.err != nil {
				ctrl = appendAbortMsg(ctrl[:0], o.w.err.Error())
				if write(ctrl) == nil {
					<-readerDone // linger, as for the end message below
				}
				return true, fmt.Errorf("%w: %v", ErrAborted, o.w.err)
			}
			ctrl = appendCtrlMsg(ctrl[:0], msgEnd, 0)
			if err := write(ctrl); err != nil {
				return false, err
			}
			// Linger until the peer closes so the tail flushes; the
			// reader's deadline bounds the wait. Closing first would let
			// the inlet's next credit write fail, and the inlet severs
			// the connection on a failed write, before it has read this
			// message.
			<-readerDone
			return true, nil
		}
		if err := write(msg); err != nil {
			return false, err
		}
		credit--
		sentSeq++
		o.frames.Add(1)
		if len(o.cuts) > 0 && sentSeq >= o.cuts[0] {
			o.cuts = o.cuts[1:]
			conn.Close() // abrupt, as a crash would be
			<-readerDone
			return false, errInjectedCut
		}
	}
}

// Serve accepts consumers on lis until the stream is fully delivered:
// each dropped connection (including injected cuts) is an invitation to
// reconnect and resume within the Reconnect budget; typed protocol
// violations and producer death are terminal. Returns nil after clean
// delivery. When no consumer returns within the budget (one that closed
// before the end of the stream), Serve closes lis, as it does on
// cancellation, and returns the dropped connection's error. A
// connection that never completes the handshake (a readiness probe)
// neither starts nor stops the budget: until a consumer has attached,
// Serve waits for one indefinitely.
func (o *Outlet) Serve(ctx context.Context, lis net.Listener) error {
	unwatch := context.AfterFunc(ctx, func() { lis.Close() })
	defer unwatch()
	var (
		dropErr error // the last dropped connection's error
		expired atomic.Bool
		budget  *time.Timer
	)
	for {
		conn, err := lis.Accept()
		if err != nil {
			switch {
			case ctx.Err() != nil:
				return ctx.Err()
			case expired.Load():
				return fmt.Errorf("stream: no consumer resumed within %v: %w", o.to.Reconnect, dropErr)
			}
			return err
		}
		wel, err := o.greet(conn)
		if err != nil {
			conn.Close()
			if isWireError(err) {
				return err
			}
			continue
		}
		if budget != nil {
			budget.Stop()
		}
		finished, err := o.serveAttached(conn, wel)
		conn.Close()
		switch {
		case finished:
			return err // nil on clean delivery; producer death carries its error
		case err != nil && isWireError(err):
			return err
		}
		// Transport drop or injected cut: accept the reconnect.
		dropErr = err
		budget = time.AfterFunc(o.to.Reconnect, func() {
			expired.Store(true)
			lis.Close()
		})
	}
}

// WriteAll streams the whole source one-way to w — no welcome, credits,
// heartbeats, or resume; the blocking write is the backpressure. This
// is the pipe/file flavour (`stms-trace -wire - | stms-sim -connect -`).
func (o *Outlet) WriteAll(w io.Writer) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	wk, err := newWalker(o.src)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	h := o.src.Hello
	h.OneWay = true
	if err := writeEnvelope(bw, h); err != nil {
		return err
	}
	var ctrl []byte
	for {
		msg, _ := wk.step()
		if msg == nil {
			break
		}
		if _, err := bw.Write(msg); err != nil {
			return err
		}
		o.frames.Add(1)
	}
	if wk.err != nil {
		ctrl = appendAbortMsg(ctrl, wk.err.Error())
		if _, err := bw.Write(ctrl); err != nil {
			return err
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		return fmt.Errorf("%w: %v", ErrAborted, wk.err)
	}
	ctrl = appendCtrlMsg(ctrl, msgEnd, 0)
	if _, err := bw.Write(ctrl); err != nil {
		return err
	}
	return bw.Flush()
}
