package stream

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"stms/internal/trace"
)

// InletConfig tunes the consuming side. The zero value is usable.
type InletConfig struct {
	Timeouts Timeouts
	// Window is the credit window: the maximum frames buffered
	// inlet-side (and so the maximum the outlet may have in flight
	// unacknowledged). Defaults to max(16, 4*cores), floored at
	// 2*cores+2 so round-robin delivery cannot starve a core.
	Window int
}

// Inlet consumes one STMSWIRE stream and hands it to the simulation as
// per-core trace.FrameSources — the drivers cannot tell it from a local
// tape. A reader goroutine owns the connection: it validates and
// decodes frames into a bounded pool of buffers (memory stays bounded
// no matter how far the producer is ahead or how stalled the simulator
// is), routes them to per-core channels, grants credit as the consumer
// recycles buffers, and reconnects with resume when the transport
// drops. Typed protocol violations and a dead producer surface through
// Err — per the trace.FrameSource contract, never as a clean-looking
// end of stream.
type Inlet struct {
	to     Timeouts
	window int
	hello  Hello

	// helloJSON is the first connection's hello body; reconnects must
	// present identical metadata or the stream identity has changed
	// under us (ErrMetadata).
	helloJSON []byte
	oneWay    bool

	addr   string    // the outlet's address, redialed for resume; empty for one-way readers
	closer io.Closer // one-way source to close on Close, if closeable

	pool  chan *trace.Frame
	chans []chan *trace.Frame

	mu         sync.Mutex
	conn       net.Conn // live connection, for Close to sever
	held       int      // frames out of the pool (buffered + consumer-held)
	pending    int      // recycled frames not yet granted back as credit
	lastSeq    uint64   // last contiguous frame sequence received
	err        error    // terminal failure, set before channels close
	frames     uint64
	records    uint64 // records received, all cores
	reconnects uint64

	notify    chan struct{} // pokes the credit writer
	closed    chan struct{}
	closeOnce sync.Once
	done      chan struct{} // reader goroutine exited
}

func newInlet(cfg InletConfig) *Inlet {
	return &Inlet{
		to:     cfg.Timeouts.withDefaults(),
		window: cfg.Window,
		notify: make(chan struct{}, 1),
		closed: make(chan struct{}),
		done:   make(chan struct{}),
	}
}

// DialInlet connects to an outlet at addr, completes the handshake, and
// starts consuming. The first dial retries with backoff inside the
// Reconnect budget, as a resume does, so a consumer may start before
// its producer listens. Reconnect-with-resume redials the same address.
func DialInlet(addr string, cfg InletConfig) (*Inlet, error) {
	in := newInlet(cfg)
	in.addr = addr
	conn, err := in.attach()
	if err != nil {
		return nil, err
	}
	go in.run(conn)
	return in, nil
}

// ReaderInlet consumes a one-way stream (stdin, a file, a pipe): no
// welcome, credits, or resume — not reading is the backpressure. If r
// is an io.Closer, Close closes it to unblock the reader.
func ReaderInlet(r io.Reader, cfg InletConfig) (*Inlet, error) {
	in := newInlet(cfg)
	if c, ok := r.(io.Closer); ok {
		in.closer = c
	}
	body, err := readEnvelope(r)
	if err != nil {
		return nil, err
	}
	if err := in.adoptHello(body); err != nil {
		return nil, err
	}
	if !in.hello.OneWay {
		return nil, fmt.Errorf("%w: two-way hello on a one-way reader", ErrProtocol)
	}
	in.oneWay = true
	go in.runReader(r)
	return in, nil
}

// adoptHello validates and installs the first hello, sizing the buffer
// pool and per-core channels from its (capped) declarations.
func (in *Inlet) adoptHello(body []byte) error {
	var h Hello
	if err := json.Unmarshal(body, &h); err != nil {
		return fmt.Errorf("%w: hello: %v", ErrProtocol, err)
	}
	if err := h.validate(); err != nil {
		return err
	}
	in.hello = h
	in.helloJSON = append([]byte(nil), body...)
	if in.window <= 0 {
		in.window = max(16, 4*h.Cores)
	}
	if floor := 2*h.Cores + 2; in.window < floor {
		in.window = floor
	}
	if in.window > maxWindow {
		in.window = maxWindow
	}
	// window + cores buffers: up to window frames buffered inlet-side
	// plus one in each consumer's hands.
	in.pool = make(chan *trace.Frame, in.window+h.Cores)
	for i := 0; i < in.window+h.Cores; i++ {
		in.pool <- trace.NewFrameCap(h.FrameCap)
	}
	in.chans = make([]chan *trace.Frame, h.Cores)
	for i := range in.chans {
		in.chans[i] = make(chan *trace.Frame, in.window)
	}
	return nil
}

// handshake runs the two-way opening on a fresh connection: read and
// check the hello, reply with resume position and the current credit.
func (in *Inlet) handshake(conn net.Conn) error {
	_ = conn.SetDeadline(time.Now().Add(handshakeTimeout))
	body, err := readEnvelope(conn)
	if err != nil {
		return err
	}
	if in.helloJSON == nil {
		if err := in.adoptHello(body); err != nil {
			return err
		}
	} else if !bytes.Equal(body, in.helloJSON) {
		return fmt.Errorf("%w: reconnect offered a different stream", ErrMetadata)
	}
	if in.hello.OneWay {
		return fmt.Errorf("%w: one-way hello on a connection", ErrProtocol)
	}
	in.mu.Lock()
	in.pending = 0
	wel := Welcome{
		Format:    string(wireMagic[:]),
		Version:   Version,
		ResumeSeq: in.lastSeq,
		Window:    uint32(in.window - in.held),
	}
	in.conn = conn
	in.mu.Unlock()
	if err := writeEnvelope(conn, wel); err != nil {
		return err
	}
	_ = conn.SetDeadline(time.Time{})
	return nil
}

// run is the reader goroutine for connection-backed inlets: consume
// until clean end, resuming across transport drops; always close the
// per-core channels on the way out so consumers never hang.
func (in *Inlet) run(conn net.Conn) {
	defer close(in.done)
	defer func() {
		for _, ch := range in.chans {
			close(ch)
		}
	}()
	for {
		err := in.consume(conn, conn)
		conn.Close()
		if err == nil {
			return // clean end of stream
		}
		if in.isClosed() {
			// User-initiated shutdown: the transport error is just our
			// own conn.Close echoing back.
			in.setErr(ErrClosed)
			return
		}
		if isWireError(err) {
			in.setErr(err)
			return
		}
		conn, err = in.attach()
		if err != nil {
			in.setErr(err)
			return
		}
		in.mu.Lock()
		in.reconnects++
		in.mu.Unlock()
	}
}

// runReader is the reader goroutine for one-way inlets: a single
// consume pass, no resume.
func (in *Inlet) runReader(r io.Reader) {
	defer close(in.done)
	defer func() {
		for _, ch := range in.chans {
			close(ch)
		}
	}()
	if err := in.consume(r, nil); err != nil {
		in.setErr(err)
	}
}

// consume drains messages from one transport until end of stream (nil),
// a typed protocol failure, or a transport error. conn is nil for
// one-way readers (no deadlines, no credit writer).
func (in *Inlet) consume(r io.Reader, conn net.Conn) error {
	if conn != nil {
		stop := make(chan struct{})
		defer close(stop)
		go in.writeLoop(conn, stop)
	}
	mr := newMsgReader(bufio.NewReaderSize(r, 64<<10), in.hello)
	for {
		if conn != nil {
			_ = conn.SetReadDeadline(time.Now().Add(idleTimeout))
		}
		h, payload, err := mr.next()
		if err != nil {
			return err
		}
		switch h.typ {
		case msgFrame:
			if err := in.acceptFrame(h, payload); err != nil {
				return err
			}
		case msgHeartbeat:
			// Read deadline already refreshed.
		case msgEnd:
			return nil
		case msgAbort:
			return fmt.Errorf("%w: %s", ErrAborted, payload)
		default:
			return fmt.Errorf("%w: unexpected message %#x from outlet", ErrProtocol, h.typ)
		}
	}
}

// acceptFrame validates ordering and credit, decodes the payload into a
// pooled buffer, and routes it to its core's channel.
func (in *Inlet) acceptFrame(h msgHdr, payload []byte) error {
	if h.seq != in.lastSeq+1 {
		return fmt.Errorf("%w: frame sequence %d after %d", ErrProtocol, h.seq, in.lastSeq)
	}
	var f *trace.Frame
	if in.oneWay {
		// One-way: the pool bounds memory; waiting for a free buffer
		// (not reading the pipe) is the backpressure.
		select {
		case f = <-in.pool:
		case <-in.closed:
			return ErrClosed
		}
	} else {
		// Two-way: the outlet may only send within granted credit, and
		// the pool is sized to cover exactly that. An empty pool means
		// the peer overran its window.
		select {
		case f = <-in.pool:
		default:
			return fmt.Errorf("%w: frame %d arrived with no credit outstanding", ErrCredit, h.seq)
		}
	}
	if err := decodeFrame(f, int(h.records), payload); err != nil {
		in.pool <- f
		return err
	}
	in.mu.Lock()
	in.lastSeq = h.seq
	in.held++
	in.frames++
	in.records += uint64(h.records)
	in.mu.Unlock()
	// Channel capacity covers the whole window: this never blocks.
	in.chans[h.arg] <- f
	return nil
}

// writeLoop sends credit grants and heartbeats on its own goroutine
// until the connection turns over. On a write failure it severs the
// conn so the reader unblocks with the transport error.
func (in *Inlet) writeLoop(conn net.Conn, stop chan struct{}) {
	tick := time.NewTicker(heartbeatPeriod)
	defer tick.Stop()
	var buf []byte
	for {
		select {
		case <-stop:
			return
		case <-in.closed:
			return
		case <-in.notify:
		case <-tick.C:
		}
		in.mu.Lock()
		n := in.pending
		in.pending = 0
		in.mu.Unlock()
		if n > 0 {
			buf = appendCtrlMsg(buf[:0], msgCredit, uint32(n))
		} else {
			buf = appendCtrlMsg(buf[:0], msgHeartbeat, 0)
		}
		_ = conn.SetWriteDeadline(time.Now().Add(idleTimeout))
		if _, err := conn.Write(buf); err != nil {
			conn.Close()
			return
		}
	}
}

// attach establishes the transport, first or after a drop: dial with
// exponential backoff inside the Reconnect budget, then handshake with
// the resume position.
func (in *Inlet) attach() (net.Conn, error) {
	deadline := time.Now().Add(in.to.Reconnect)
	backoff := backoffStart
	var lastErr error
	for {
		if in.isClosed() {
			return nil, ErrClosed
		}
		conn, err := net.DialTimeout("tcp", in.addr, handshakeTimeout)
		if err == nil {
			if err = in.handshake(conn); err == nil {
				return conn, nil
			}
			conn.Close()
			if isWireError(err) {
				return nil, err
			}
		}
		lastErr = err
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("stream: no outlet answered within %v: %w", in.to.Reconnect, lastErr)
		}
		t := time.NewTimer(backoff)
		select {
		case <-in.closed:
			t.Stop()
			return nil, ErrClosed
		case <-t.C:
		}
		if backoff *= 2; backoff > time.Second {
			backoff = time.Second
		}
	}
}

// recycle returns a consumed frame to the pool and queues a credit
// grant for it.
func (in *Inlet) recycle(f *trace.Frame) {
	in.mu.Lock()
	in.held--
	in.pending++
	in.mu.Unlock()
	in.pool <- f
	select {
	case in.notify <- struct{}{}:
	default:
	}
}

func (in *Inlet) setErr(err error) {
	in.mu.Lock()
	if in.err == nil {
		in.err = err
	}
	in.mu.Unlock()
}

func (in *Inlet) isClosed() bool {
	select {
	case <-in.closed:
		return true
	default:
		return false
	}
}

// Hello returns the stream's announced metadata.
func (in *Inlet) Hello() Hello { return in.hello }

// Err returns the stream's terminal failure: nil while streaming and
// after a clean end, non-nil when the producer died, the protocol was
// violated, or resume ran out of budget.
func (in *Inlet) Err() error {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.err
}

// Frames returns how many frames have been received, Reconnects how
// many times the transport was re-established mid-stream.
func (in *Inlet) Frames() uint64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.frames
}

// Reconnects reports mid-stream transport re-establishments.
func (in *Inlet) Reconnects() uint64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.reconnects
}

// Close tears the inlet down: severs the transport, stops the reader
// goroutine, and releases consumers (their NextFrame drains what is
// buffered, then returns nil). Idempotent; does not wait for the reader.
func (in *Inlet) Close() {
	in.closeOnce.Do(func() {
		close(in.closed)
		in.mu.Lock()
		conn := in.conn
		in.mu.Unlock()
		if conn != nil {
			conn.Close()
		}
		if in.closer != nil {
			in.closer.Close()
		}
	})
}

// Wait blocks until the reader goroutine has exited (tests use it to
// prove cancellation leaks nothing).
func (in *Inlet) Wait() { <-in.done }

// Sources returns the per-core frame sources, one per announced core.
// Each implements trace.FrameSource; closing any of them closes the
// whole inlet (the drivers close every source on every exit path).
func (in *Inlet) Sources() []trace.FrameSource {
	out := make([]trace.FrameSource, len(in.chans))
	for i := range out {
		out[i] = &coreSource{in: in, core: i}
	}
	return out
}

// coreSource adapts one core's channel to trace.FrameSource.
type coreSource struct {
	in    *Inlet
	core  int
	cur   *trace.Frame
	stats trace.FrameStats
}

func (c *coreSource) NextFrame() *trace.Frame {
	if c.cur != nil {
		c.in.recycle(c.cur)
		c.cur = nil
	}
	f, ok := <-c.in.chans[c.core]
	if !ok {
		return nil
	}
	c.cur = f
	c.stats.Frames++
	c.stats.Records += uint64(f.Len())
	return f
}

func (c *coreSource) Stats() trace.FrameStats { return c.stats }

// Err forwards the inlet's terminal failure, honoring the FrameSource
// contract: a producer death must never present as clean end-of-stream.
func (c *coreSource) Err() error { return c.in.Err() }

// Close closes the whole inlet. A consumer that read its core's whole
// budget, once every announced record has arrived, first waits for the
// stream's end message (resuming across a drop if need be): the outlet
// then finishes cleanly instead of waiting out its reconnect budget for
// a consumer that hung up before the end.
func (c *coreSource) Close() {
	if c.cur != nil {
		c.in.recycle(c.cur) // the credit that lets the outlet send its end
		c.cur = nil
	}
	if c.stats.Records >= c.in.hello.PerCore && c.in.received() {
		<-c.in.done
	}
	c.in.Close()
}

// received reports whether every record the hello announced has arrived.
func (in *Inlet) received() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.hello.PerCore > 0 && in.records == in.hello.PerCore*uint64(in.hello.Cores)
}
