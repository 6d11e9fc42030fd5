// Package ckpt is the repo's binary codec and durable writer. It
// implements the STMSCKPT v1 checkpoint container (a versioned,
// checksummed binary envelope) plus a tiny sticky-error
// encoder/decoder pair that the simulator components serialize
// themselves through and that the STMSTAPE tape format is laid out in.
//
// The format is deliberately dumb: little-endian fixed-width integers,
// length-prefixed byte strings, and named section markers that turn
// encoder/decoder skew into an immediate, labelled error instead of a
// silently corrupt restore. A checkpoint is only ever trusted after the
// whole-payload CRC and the magic/version header check out; a torn or
// bit-flipped file reads as an error, never as state.
//
// Files are written atomically (temp file + fsync + rename + directory
// fsync) so a crash mid-write leaves either the previous file or none.
package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
)

// Magic and Version identify the container format.
const (
	Magic   = "STMSCKPT"
	Version = 1
)

// ErrCorrupt marks a snapshot that decodes cleanly but describes a state
// its component could never reach (counts that disagree, a table that
// breaks its own invariants). Restores wrap it so callers can tell bad
// bytes from a configuration mismatch.
var ErrCorrupt = errors.New("ckpt: corrupt snapshot")

// headerLen is magic + u32 version + u64 payload length.
const headerLen = len(Magic) + 4 + 8

// Encoder appends values to a growing byte buffer. It never fails.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an empty encoder.
func NewEncoder() *Encoder { return &Encoder{} }

// Payload returns the encoded payload (not yet framed; see Seal).
func (e *Encoder) Payload() []byte { return e.buf }

// U8 appends one byte.
func (e *Encoder) U8(v uint8) { e.buf = append(e.buf, v) }

// U32 appends a little-endian uint32.
func (e *Encoder) U32(v uint32) {
	e.buf = binary.LittleEndian.AppendUint32(e.buf, v)
}

// U64 appends a little-endian uint64.
func (e *Encoder) U64(v uint64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}

// I64 appends an int64 (two's-complement bit pattern).
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// Int appends an int as int64.
func (e *Encoder) Int(v int) { e.I64(int64(v)) }

// Bool appends a boolean as one byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// F64 appends a float64 bit pattern (lossless).
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// Bytes appends a length-prefixed byte string.
func (e *Encoder) Bytes(b []byte) {
	e.U64(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// String appends a length-prefixed string.
func (e *Encoder) String(s string) {
	e.U64(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// U64s appends a length-prefixed []uint64.
func (e *Encoder) U64s(v []uint64) {
	e.U64(uint64(len(v)))
	for _, x := range v {
		e.U64(x)
	}
}

// U32s appends a length-prefixed []uint32.
func (e *Encoder) U32s(v []uint32) {
	e.U64(uint64(len(v)))
	for _, x := range v {
		e.U32(x)
	}
}

// I32s appends a length-prefixed []int32.
func (e *Encoder) I32s(v []int32) {
	e.U64(uint64(len(v)))
	for _, x := range v {
		e.U32(uint32(x))
	}
}

// F64s appends a length-prefixed []float64.
func (e *Encoder) F64s(v []float64) {
	e.U64(uint64(len(v)))
	for _, x := range v {
		e.F64(x)
	}
}

// Section appends a named marker. The matching Decoder.Section call
// verifies it, catching any encode/decode skew at the component that
// introduced it.
func (e *Encoder) Section(name string) { e.String(name) }

// Decoder reads values back out of a payload. The first failure
// (truncation, section mismatch) sticks: every later read returns zero
// values and Err reports the original problem.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder wraps payload for decoding.
func NewDecoder(payload []byte) *Decoder { return &Decoder{buf: payload} }

// Err returns the first decoding error, or nil.
func (d *Decoder) Err() error { return d.err }

// Remaining returns how many undecoded bytes are left.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

func (d *Decoder) fail(format string, args ...interface{}) {
	if d.err == nil {
		d.err = fmt.Errorf("ckpt: "+format, args...)
	}
}

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.buf) {
		d.fail("truncated payload: need %d bytes at offset %d of %d", n, d.off, len(d.buf))
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U32 reads a little-endian uint32.
func (d *Decoder) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads an int64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// Int reads an int encoded with Encoder.Int.
func (d *Decoder) Int() int { return int(d.I64()) }

// Bool reads a boolean.
func (d *Decoder) Bool() bool { return d.U8() != 0 }

// F64 reads a float64.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// lenPrefix reads a length and sanity-bounds it against the bytes left.
func (d *Decoder) lenPrefix(elemSize int) int {
	n := d.U64()
	if d.err != nil {
		return 0
	}
	if elemSize < 1 {
		elemSize = 1
	}
	if n > uint64(len(d.buf)-d.off)/uint64(elemSize) {
		d.fail("implausible length %d at offset %d", n, d.off)
		return 0
	}
	return int(n)
}

// Bytes reads a length-prefixed byte string (copy).
func (d *Decoder) Bytes() []byte { return bytes.Clone(d.View()) }

// View reads a length-prefixed byte string without copying it: the
// result aliases the payload, clipped to its own length and capacity so
// an append cannot reach the bytes after it. Only a caller that owns the
// payload and never writes to it may keep a view.
func (d *Decoder) View() []byte {
	b := d.take(d.lenPrefix(1))
	return b[:len(b):len(b)]
}

// String reads a length-prefixed string.
func (d *Decoder) String() string {
	n := d.lenPrefix(1)
	b := d.take(n)
	return string(b)
}

// U64s reads a length-prefixed []uint64.
func (d *Decoder) U64s() []uint64 {
	n := d.lenPrefix(8)
	if n == 0 {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = d.U64()
	}
	return out
}

// U32s reads a length-prefixed []uint32.
func (d *Decoder) U32s() []uint32 {
	n := d.lenPrefix(4)
	if n == 0 {
		return nil
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = d.U32()
	}
	return out
}

// I32s reads a length-prefixed []int32.
func (d *Decoder) I32s() []int32 {
	n := d.lenPrefix(4)
	if n == 0 {
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(d.U32())
	}
	return out
}

// F64s reads a length-prefixed []float64.
func (d *Decoder) F64s() []float64 {
	n := d.lenPrefix(8)
	if n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = d.F64()
	}
	return out
}

// Section verifies the next marker matches name.
func (d *Decoder) Section(name string) {
	got := d.String()
	if d.err == nil && got != name {
		d.fail("section mismatch: want %q, got %q", name, got)
	}
}

// Seal frames payload into a complete STMSCKPT container:
// magic, version, payload length, payload, CRC-32 (IEEE) of the payload.
func Seal(payload []byte) []byte {
	out := make([]byte, 0, headerLen+len(payload)+4)
	out = append(out, Magic...)
	out = binary.LittleEndian.AppendUint32(out, Version)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
	out = append(out, payload...)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
	return out
}

// Open verifies a sealed container and returns its payload. Any header,
// length or checksum mismatch is an error — a corrupt checkpoint must
// be discarded, never restored.
func Open(data []byte) ([]byte, error) {
	if len(data) < headerLen+4 {
		return nil, fmt.Errorf("ckpt: container too short (%d bytes)", len(data))
	}
	if string(data[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("ckpt: bad magic")
	}
	ver := binary.LittleEndian.Uint32(data[len(Magic):])
	if ver != Version {
		return nil, fmt.Errorf("ckpt: unsupported version %d (want %d)", ver, Version)
	}
	plen := binary.LittleEndian.Uint64(data[len(Magic)+4:])
	if plen != uint64(len(data)-headerLen-4) {
		return nil, fmt.Errorf("ckpt: payload length %d does not match container (%d bytes)", plen, len(data))
	}
	payload := data[headerLen : headerLen+int(plen)]
	want := binary.LittleEndian.Uint32(data[headerLen+int(plen):])
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, fmt.Errorf("ckpt: checksum mismatch (got %08x, want %08x)", got, want)
	}
	return payload, nil
}

// WriteFile atomically writes data to path: temp file in the same
// directory, fsync, rename over path, then fsync the directory so the
// rename itself survives a crash. On any error the destination is
// untouched.
func WriteFile(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return fmt.Errorf("ckpt: create temp: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("ckpt: write temp: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("ckpt: sync temp: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("ckpt: close temp: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("ckpt: rename: %w", err)
	}
	syncDir(dir)
	return nil
}

// syncDir fsyncs a directory so freshly renamed dirents are durable.
// Filesystems that refuse directory fsync (some network mounts) are
// tolerated: the rename is still atomic, just not yet durable.
func syncDir(dir string) {
	if df, err := os.Open(dir); err == nil {
		df.Sync()
		df.Close()
	}
}
