package stream

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"testing"

	"stms/internal/trace"
)

// fuzzHello is the fixed handshake the frame fuzzer parses under: small
// caps so the fuzzer reaches the limits quickly.
var fuzzHello = Hello{
	Format: string(wireMagic[:]), Version: Version,
	Spec:  trace.Spec{Name: "fuzz"},
	Cores: 3, FrameCap: 8,
}

// fuzzFrame builds a filled frame for seed corpora.
func fuzzFrame(n int) *trace.Frame {
	f := trace.NewFrameCap(fuzzHello.FrameCap)
	f.SetLen(n)
	for i := 0; i < n; i++ {
		f.Block[i] = uint64(i) * 0x9E3779B97F4A7C15
		f.PC[i] = uint32(i) * 2654435761
		f.Instrs[i] = uint32(i + 1)
		f.Work[i] = uint32(i * 3)
		f.Dep[i] = i%3 == 0
	}
	return f
}

// FuzzWireFrame drives the post-handshake message parser — the most
// exposed untrusted surface of the wire protocol — over arbitrary
// bytes. It must never panic or allocate beyond the handshake caps, and
// every frame it accepts must re-encode to the identical payload
// (decode and encode are inverses on the accepted set).
func FuzzWireFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0x01}, hdrSize+4))
	f.Add(appendCtrlMsg(nil, msgHeartbeat, 0))
	f.Add(appendCtrlMsg(nil, msgEnd, 0))
	f.Add(appendCtrlMsg(nil, msgCredit, 7))
	f.Add(appendAbortMsg(nil, "generator failed"))
	msg := appendFrameMsg(nil, 1, 42, fuzzFrame(5))
	f.Add(msg)
	f.Add(msg[:len(msg)-2]) // truncated crc
	corrupt := bytes.Clone(msg)
	corrupt[hdrSize+3] ^= 0x40
	f.Add(corrupt)
	// Abort longer than a frame payload at this cap: exercises the
	// grow-beyond-frame-buffer path.
	f.Add(appendAbortMsg(nil, string(bytes.Repeat([]byte{'x'}, 600))))

	f.Fuzz(func(t *testing.T, data []byte) {
		mr := newMsgReader(bytes.NewReader(data), fuzzHello)
		fr := trace.NewFrameCap(fuzzHello.FrameCap)
		for i := 0; i < 64; i++ {
			h, payload, err := mr.next()
			if err != nil {
				// Every rejection must be a truncation or a typed wire
				// error; a bare error would defeat the retriable-vs-fatal
				// split the inlet's reconnect logic relies on.
				if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) && !isWireError(err) {
					t.Fatalf("untyped parse error: %v", err)
				}
				return
			}
			if h.typ != msgFrame {
				continue
			}
			if err := decodeFrame(fr, int(h.records), payload); err != nil {
				t.Fatalf("validated frame failed to decode: %v", err)
			}
			enc := appendFrameMsg(nil, h.arg, h.seq, fr)
			if !bytes.Equal(enc[hdrSize:hdrSize+len(payload)], payload) {
				t.Fatalf("frame re-encode differs from accepted payload")
			}
		}
	})
}

// FuzzWireEnvelope drives the handshake envelope reader: arbitrary
// bytes must yield either a typed error or a JSON body no larger than
// the envelope cap.
func FuzzWireEnvelope(f *testing.F) {
	var hello bytes.Buffer
	if err := writeEnvelope(&hello, fuzzHello); err != nil {
		f.Fatal(err)
	}
	f.Add(hello.Bytes())
	f.Add(hello.Bytes()[:10])
	corrupt := bytes.Clone(hello.Bytes())
	corrupt[len(corrupt)-1] ^= 1
	f.Add(corrupt)
	f.Add([]byte("STMSWIRE garbage that is not an envelope"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		body, err := readEnvelope(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(body) > maxEnvelopeLen {
			t.Fatalf("accepted %d-byte envelope (cap %d)", len(body), maxEnvelopeLen)
		}
		var h Hello
		if err := json.Unmarshal(body, &h); err == nil {
			_ = h.validate()
		}
	})
}
