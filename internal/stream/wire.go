// Package stream carries trace frames between processes over the
// STMSWIRE v1 framed wire protocol, turning the simulator from a batch
// tool into a service that chews on access streams as they arrive.
//
// The producing side (the Outlet) listens and serves; the consuming side
// (the Inlet) dials it, or reads a one-way stream from a pipe. A stream
// opens with a JSON handshake: the outlet always speaks first, sending a
// Hello envelope that announces the stream's identity — workload spec,
// scenario provenance, seed, core count, per-core record budget, frame
// capacity — so the inlet can wire up a simulation that is
// bit-identical to running the same trace locally. The inlet replies
// with a Welcome carrying its resume position and an initial credit
// window. After the handshake the stream is binary: length-prefixed,
// CRC32-sealed, sequence-numbered messages framing columnar
// trace.Frame batches, interleaved round-robin across cores.
//
// Robustness is the protocol's reason to exist; its rules are:
//
//   - Untrusted bytes: every declared length is capped and
//     cross-checked before any allocation; every message is CRC-sealed;
//     violations surface as typed errors (ErrProtocol, ErrChecksum,
//     ErrTooLarge, ErrVersion), never as panics or unbounded make().
//   - Bounded memory: the inlet grants an explicit credit window (one
//     credit = one frame) and the outlet never has more unacknowledged
//     frames in flight than the window, so a stalled simulator throttles
//     the producer instead of buffering unboundedly. A peer that sends
//     past its credit is cut off with ErrCredit.
//   - Liveness: both sides send heartbeats on a timer and arm read
//     deadlines, so a dead peer is detected as a deadline, not a hang —
//     and a slow-but-alive one is not.
//   - Resume: frames carry a global sequence number; on reconnect the
//     inlet reports its last contiguous sequence and the outlet replays
//     from a bounded ring of recent frames, or deterministically
//     re-walks the source when the ring has rotated past the resume
//     point. Either way the delivered frame sequence is identical, so a
//     mid-run disconnect degrades to a pause, not corrupted results.
package stream

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"time"

	"stms/internal/trace"
)

// wireMagic opens every handshake envelope.
var wireMagic = [8]byte{'S', 'T', 'M', 'S', 'W', 'I', 'R', 'E'}

// Version is the wire format version this package speaks. Readers
// reject other versions with ErrVersion.
const Version = 1

// Message types. Every message shares one fixed header (see msgHdr);
// fields a message type does not use must be zero.
const (
	msgFrame     = 0x01 // one columnar frame batch
	msgEnd       = 0x02 // clean end of stream
	msgHeartbeat = 0x03 // keepalive, either direction
	msgCredit    = 0x04 // inlet -> outlet: additive flow-control grant
	msgAbort     = 0x05 // outlet -> inlet: producer died; payload = reason
)

// Hard caps on attacker-declared sizes, enforced before any allocation.
const (
	maxEnvelopeLen = 1 << 20 // handshake JSON
	maxFrameCap    = 1 << 16 // records per frame
	maxCores       = 1 << 12
	maxWindow      = 1 << 20 // credit grant, frames
	maxAbortLen    = 1 << 12 // abort reason text
)

// Typed protocol failures. Wrapped errors carry the detail; match with
// errors.Is.
var (
	ErrProtocol = errors.New("stream: protocol violation")
	ErrVersion  = errors.New("stream: wire version mismatch")
	ErrChecksum = errors.New("stream: checksum mismatch")
	ErrTooLarge = errors.New("stream: declared length over cap")
	ErrMetadata = errors.New("stream: stream metadata changed across reconnect")
	ErrCredit   = errors.New("stream: peer overran its credit window")
	ErrAborted  = errors.New("stream: producer aborted mid-stream")
	ErrClosed   = errors.New("stream: closed")
)

// isWireError reports whether err is one of the typed protocol
// failures — unrecoverable by reconnecting, as opposed to transport
// errors (resets, timeouts), which resume handles.
func isWireError(err error) bool {
	for _, e := range []error{ErrProtocol, ErrVersion, ErrChecksum,
		ErrTooLarge, ErrMetadata, ErrCredit, ErrAborted, ErrClosed} {
		if errors.Is(err, e) {
			return true
		}
	}
	return false
}

// The protocol's fixed deadlines: a dead peer is detected as a
// deadline, never a hang.
const (
	handshakeTimeout = 5 * time.Second       // dial + envelope exchange deadline
	idleTimeout      = 30 * time.Second      // max peer silence before the conn is dead
	heartbeatPeriod  = idleTimeout / 3       // keepalive period
	backoffStart     = 50 * time.Millisecond // first resume retry delay, doubling per attempt
)

// Timeouts sets the resume budget (the dist.Timeouts idiom; zero takes
// the default).
type Timeouts struct {
	Reconnect time.Duration // total resume budget after a drop (default 15s)
}

func (t Timeouts) withDefaults() Timeouts {
	if t.Reconnect == 0 {
		t.Reconnect = 15 * time.Second
	}
	return t
}

// Hello is the outlet's handshake envelope: everything the inlet needs
// to reproduce the stream's trace identity locally. The outlet sends it
// first on every connection.
type Hello struct {
	Format  string `json:"format"`  // "STMSWIRE"
	Version int    `json:"version"` // wire format version

	Spec     trace.Spec        `json:"spec"`               // scaled workload spec (or name+dirty for external traces)
	Scenario string            `json:"scenario,omitempty"` // scenario name, when the stream is one
	Marks    []trace.PhaseMark `json:"marks,omitempty"`    // phase starts, for per-phase stat windows
	Seed     uint64            `json:"seed"`
	Cores    int               `json:"cores"`
	PerCore  uint64            `json:"per_core"` // record budget per core; 0 = unbounded/unknown
	FrameCap int               `json:"frame_cap"`
	OneWay   bool              `json:"one_way,omitempty"` // no return channel: no welcome, credits, or resume
}

// validate bounds the remote-declared sizes before anything is
// allocated from them.
func (h Hello) validate() error {
	switch {
	case h.Format != string(wireMagic[:]):
		return fmt.Errorf("%w: hello format %q", ErrProtocol, h.Format)
	case h.Version != Version:
		return fmt.Errorf("%w: peer speaks version %d, this side %d", ErrVersion, h.Version, Version)
	case h.Cores < 1 || h.Cores > maxCores:
		return fmt.Errorf("%w: %d cores (max %d)", ErrTooLarge, h.Cores, maxCores)
	case h.FrameCap < 1 || h.FrameCap > maxFrameCap:
		return fmt.Errorf("%w: frame capacity %d (max %d)", ErrTooLarge, h.FrameCap, maxFrameCap)
	case h.Spec.Name == "":
		return fmt.Errorf("%w: hello names no workload", ErrProtocol)
	}
	return nil
}

// Welcome is the inlet's handshake reply: where to (re)start and how
// many frames may be in flight.
type Welcome struct {
	Format  string `json:"format"`
	Version int    `json:"version"`

	ResumeSeq uint64 `json:"resume_seq"` // last contiguous frame received; 0 = from the start
	Window    uint32 `json:"window"`     // initial credit, frames
}

func (w Welcome) validate() error {
	switch {
	case w.Format != string(wireMagic[:]):
		return fmt.Errorf("%w: welcome format %q", ErrProtocol, w.Format)
	case w.Version != Version:
		return fmt.Errorf("%w: peer speaks version %d, this side %d", ErrVersion, w.Version, Version)
	case w.Window > maxWindow:
		return fmt.Errorf("%w: credit window %d (max %d)", ErrTooLarge, w.Window, maxWindow)
	}
	return nil
}

// writeEnvelope frames v as magic + version + length-prefixed JSON +
// CRC32 of the JSON.
func writeEnvelope(w io.Writer, v any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("stream: encoding envelope: %w", err)
	}
	buf := make([]byte, 0, len(wireMagic)+8+len(body)+4)
	buf = append(buf, wireMagic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, Version)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(body)))
	buf = append(buf, body...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(body))
	_, err = w.Write(buf)
	return err
}

// readEnvelope reads and verifies one handshake envelope, returning the
// JSON body. The declared length is capped before allocation. Callers
// decode the body with json.Unmarshal, which tolerates unknown fields (a
// newer same-version peer may add optional metadata) but not structural
// mismatches.
func readEnvelope(r io.Reader) ([]byte, error) {
	var hdr [16]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("stream: reading envelope: %w", err)
	}
	if [8]byte(hdr[:8]) != wireMagic {
		return nil, fmt.Errorf("%w: envelope magic %q", ErrProtocol, hdr[:8])
	}
	if v := binary.LittleEndian.Uint32(hdr[8:]); v != Version {
		return nil, fmt.Errorf("%w: peer speaks version %d, this side %d", ErrVersion, v, Version)
	}
	n := binary.LittleEndian.Uint32(hdr[12:])
	if n > maxEnvelopeLen {
		return nil, fmt.Errorf("%w: envelope of %d bytes (max %d)", ErrTooLarge, n, maxEnvelopeLen)
	}
	body := make([]byte, n+4)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, fmt.Errorf("stream: reading envelope body: %w", err)
	}
	body, sum := body[:n], binary.LittleEndian.Uint32(body[n:])
	if got := crc32.ChecksumIEEE(body); got != sum {
		return nil, fmt.Errorf("%w: envelope crc %08x, computed %08x", ErrChecksum, sum, got)
	}
	return body, nil
}

// hdrSize is the fixed binary message header: type(1) + arg(4) +
// seq(8) + records(4) + payload length(4).
const hdrSize = 21

// msgHdr is the decoded fixed header shared by all binary messages.
// arg carries the core index (frames) or the grant count (credits).
type msgHdr struct {
	typ        byte
	arg        uint32
	seq        uint64
	records    uint32
	payloadLen uint32
}

func putHdr(dst []byte, h msgHdr) []byte {
	dst = append(dst, h.typ)
	dst = binary.LittleEndian.AppendUint32(dst, h.arg)
	dst = binary.LittleEndian.AppendUint64(dst, h.seq)
	dst = binary.LittleEndian.AppendUint32(dst, h.records)
	dst = binary.LittleEndian.AppendUint32(dst, h.payloadLen)
	return dst
}

// frameBytes is the exact payload size of a frame of n records: the
// four fixed-width columns plus the dependence bitset.
func frameBytes(n int) int { return 20*n + (n+7)/8 }

// appendFrameMsg encodes f as a complete frame message into dst
// (appending; pass dst[:0] to reuse a buffer).
func appendFrameMsg(dst []byte, core uint32, seq uint64, f *trace.Frame) []byte {
	n := f.Len()
	start := len(dst)
	dst = putHdr(dst, msgHdr{
		typ: msgFrame, arg: core, seq: seq,
		records: uint32(n), payloadLen: uint32(frameBytes(n)),
	})
	for _, v := range f.Block[:n] {
		dst = binary.LittleEndian.AppendUint64(dst, v)
	}
	for _, v := range f.PC[:n] {
		dst = binary.LittleEndian.AppendUint32(dst, v)
	}
	for _, v := range f.Instrs[:n] {
		dst = binary.LittleEndian.AppendUint32(dst, v)
	}
	for _, v := range f.Work[:n] {
		dst = binary.LittleEndian.AppendUint32(dst, v)
	}
	var acc byte
	for i, d := range f.Dep[:n] {
		if d {
			acc |= 1 << (i & 7)
		}
		if i&7 == 7 {
			dst = append(dst, acc)
			acc = 0
		}
	}
	if n&7 != 0 {
		dst = append(dst, acc)
	}
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
}

// appendCtrlMsg encodes a payload-free control message (end, heartbeat,
// credit) into dst.
func appendCtrlMsg(dst []byte, typ byte, arg uint32) []byte {
	start := len(dst)
	dst = putHdr(dst, msgHdr{typ: typ, arg: arg})
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
}

// appendAbortMsg encodes a producer-death notice carrying the reason.
func appendAbortMsg(dst []byte, reason string) []byte {
	if len(reason) > maxAbortLen {
		reason = reason[:maxAbortLen]
	}
	start := len(dst)
	dst = putHdr(dst, msgHdr{typ: msgAbort, payloadLen: uint32(len(reason))})
	dst = append(dst, reason...)
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
}

// msgReader reads and validates binary messages from one connection,
// reusing one payload buffer sized by the handshake-declared caps.
type msgReader struct {
	r        io.Reader
	cores    uint32
	frameCap uint32
	hdr      [hdrSize]byte
	payload  []byte
}

func newMsgReader(r io.Reader, h Hello) *msgReader {
	return &msgReader{
		r:        r,
		cores:    uint32(h.Cores),
		frameCap: uint32(h.FrameCap),
		payload:  make([]byte, 0, frameBytes(h.FrameCap)),
	}
}

// next reads one message. The returned payload aliases the reader's
// buffer: valid until the next call. Every declared field is validated
// against the handshake's caps before the payload is read, and the CRC
// covers header and payload both.
func (mr *msgReader) next() (msgHdr, []byte, error) {
	if _, err := io.ReadFull(mr.r, mr.hdr[:]); err != nil {
		return msgHdr{}, nil, err
	}
	h := msgHdr{
		typ:        mr.hdr[0],
		arg:        binary.LittleEndian.Uint32(mr.hdr[1:]),
		seq:        binary.LittleEndian.Uint64(mr.hdr[5:]),
		records:    binary.LittleEndian.Uint32(mr.hdr[13:]),
		payloadLen: binary.LittleEndian.Uint32(mr.hdr[17:]),
	}
	switch h.typ {
	case msgFrame:
		switch {
		case h.arg >= mr.cores:
			return h, nil, fmt.Errorf("%w: frame for core %d of %d", ErrProtocol, h.arg, mr.cores)
		case h.records == 0 || h.records > mr.frameCap:
			return h, nil, fmt.Errorf("%w: frame of %d records (cap %d)", ErrTooLarge, h.records, mr.frameCap)
		case h.payloadLen != uint32(frameBytes(int(h.records))):
			return h, nil, fmt.Errorf("%w: frame payload %d bytes, %d records need %d",
				ErrProtocol, h.payloadLen, h.records, frameBytes(int(h.records)))
		}
	case msgEnd, msgHeartbeat:
		if h.arg != 0 || h.seq != 0 || h.records != 0 || h.payloadLen != 0 {
			return h, nil, fmt.Errorf("%w: control message %#x with non-zero fields", ErrProtocol, h.typ)
		}
	case msgCredit:
		if h.arg == 0 || h.arg > maxWindow || h.seq != 0 || h.records != 0 || h.payloadLen != 0 {
			return h, nil, fmt.Errorf("%w: credit grant %d (max %d)", ErrProtocol, h.arg, maxWindow)
		}
	case msgAbort:
		if h.payloadLen > maxAbortLen {
			return h, nil, fmt.Errorf("%w: abort reason of %d bytes (max %d)", ErrTooLarge, h.payloadLen, maxAbortLen)
		}
	default:
		return h, nil, fmt.Errorf("%w: unknown message type %#x", ErrProtocol, h.typ)
	}
	// An abort reason may exceed the frame-sized buffer; the declared
	// length is already capped, so growing to it is bounded.
	if int(h.payloadLen) > cap(mr.payload) {
		mr.payload = make([]byte, h.payloadLen)
	}
	mr.payload = mr.payload[:h.payloadLen]
	if _, err := io.ReadFull(mr.r, mr.payload); err != nil {
		return h, nil, fmt.Errorf("stream: reading %d-byte payload: %w", h.payloadLen, err)
	}
	var sum [4]byte
	if _, err := io.ReadFull(mr.r, sum[:]); err != nil {
		return h, nil, fmt.Errorf("stream: reading message crc: %w", err)
	}
	got := crc32.Update(crc32.ChecksumIEEE(mr.hdr[:]), crc32.IEEETable, mr.payload)
	if want := binary.LittleEndian.Uint32(sum[:]); got != want {
		return h, nil, fmt.Errorf("%w: message %#x seq %d: crc %08x, computed %08x",
			ErrChecksum, h.typ, h.seq, want, got)
	}
	return h, mr.payload, nil
}

// decodeFrame scatters a validated frame payload into f's columns.
// The payload length has already been cross-checked against records.
func decodeFrame(f *trace.Frame, records int, payload []byte) error {
	if records > f.Cap() {
		return fmt.Errorf("%w: frame of %d records into buffer of %d", ErrTooLarge, records, f.Cap())
	}
	off := 0
	for i := 0; i < records; i++ {
		f.Block[i] = binary.LittleEndian.Uint64(payload[off:])
		off += 8
	}
	for i := 0; i < records; i++ {
		f.PC[i] = binary.LittleEndian.Uint32(payload[off:])
		off += 4
	}
	for i := 0; i < records; i++ {
		f.Instrs[i] = binary.LittleEndian.Uint32(payload[off:])
		off += 4
	}
	for i := 0; i < records; i++ {
		f.Work[i] = binary.LittleEndian.Uint32(payload[off:])
		off += 4
	}
	for i := 0; i < records; i++ {
		f.Dep[i] = payload[off+(i>>3)]>>(i&7)&1 != 0
	}
	f.SetLen(records)
	return nil
}
