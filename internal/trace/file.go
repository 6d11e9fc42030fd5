package trace

// Trace file I/O. Two on-disk formats share this file:
//
//   - Flat record traces ("STMSTRC1"): a 16-byte header (magic, record
//     count as little-endian uint64) followed by fixed 24-byte records —
//     the interchange format for converting an application's own miss
//     trace:
//
//	offset size field
//	0      8    block number
//	8      4    PC
//	12     4    instruction count
//	16     4    dispatch-cycle cost
//	20     1    flags (bit 0: Dep)
//	21     3    reserved (zero)
//
//   - Columnar tapes ("STMSTAPE"): the versioned serialization of a
//     trace.Tape — magic, format version, (seed, cores, per-core
//     budget), the scaled workload spec as length-prefixed JSON, the
//     scenario provenance (version 2: length-prefixed scenario JSON,
//     zero-length for plain spec tapes, plus the phase-mark list), then
//     each core's encoded columns with u64 length prefixes. Tapes carry
//     per-core segments natively (no round-robin re-dealing on replay)
//     and are typically ~2.5x smaller than the flat format. Version 1
//     files (no scenario section) remain readable.
//
// cmd/stms-trace writes both; DetectFormat dispatches a reader on the
// magic. Any Generator consumer accepts a FileReader or a tape Cursor.

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
)

var (
	fileMagic = [8]byte{'S', 'T', 'M', 'S', 'T', 'R', 'C', '1'}
	tapeMagic = [8]byte{'S', 'T', 'M', 'S', 'T', 'A', 'P', 'E'}
)

// tapeVersion is the current tape serialization version. Version 2
// added the scenario provenance section (scenario JSON + phase marks);
// readers accept version 1 files, which simply have no scenario.
// Readers reject versions they do not understand.
const tapeVersion = 2

const fileRecSize = 24

// Format identifies an on-disk trace flavour.
type Format int

// Trace file formats.
const (
	FormatUnknown Format = iota
	FormatRecords        // flat fixed-size records ("STMSTRC1")
	FormatTape           // columnar tape ("STMSTAPE")
)

// DetectFormat classifies a trace file by its first 8 bytes.
func DetectFormat(magic [8]byte) Format {
	switch magic {
	case fileMagic:
		return FormatRecords
	case tapeMagic:
		return FormatTape
	}
	return FormatUnknown
}

// WriteAll writes a complete trace (header + records) to w.
func WriteAll(w io.Writer, recs []Record) error {
	bw := bufio.NewWriter(w)
	var hdr [16]byte
	copy(hdr[:8], fileMagic[:])
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(recs)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var buf [fileRecSize]byte
	for i := range recs {
		encodeRecord(&buf, &recs[i])
		if _, err := bw.Write(buf[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func encodeRecord(buf *[fileRecSize]byte, r *Record) {
	binary.LittleEndian.PutUint64(buf[0:], r.Block)
	binary.LittleEndian.PutUint32(buf[8:], r.PC)
	binary.LittleEndian.PutUint32(buf[12:], r.Instrs)
	binary.LittleEndian.PutUint32(buf[16:], r.Work)
	flags := byte(0)
	if r.Dep {
		flags |= 1
	}
	buf[20] = flags
	buf[21], buf[22], buf[23] = 0, 0, 0
}

func decodeRecord(buf *[fileRecSize]byte, r *Record) {
	r.Block = binary.LittleEndian.Uint64(buf[0:])
	r.PC = binary.LittleEndian.Uint32(buf[8:])
	r.Instrs = binary.LittleEndian.Uint32(buf[12:])
	r.Work = binary.LittleEndian.Uint32(buf[16:])
	r.Dep = buf[20]&1 != 0
}

// FileReader streams records from a trace file; it implements Generator
// and the batched FrameReader fast path.
type FileReader struct {
	r         *bufio.Reader
	remaining uint64
	err       error
	buf       []byte // reusable frame-sized read buffer
}

// NewFileReader validates the header and prepares streaming reads.
func NewFileReader(r io.Reader) (*FileReader, error) {
	br := bufio.NewReader(r)
	var hdr [16]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if [8]byte(hdr[:8]) != fileMagic {
		return nil, fmt.Errorf("trace: bad magic %q", hdr[:8])
	}
	n := binary.LittleEndian.Uint64(hdr[8:])
	return &FileReader{r: br, remaining: n}, nil
}

// Remaining returns how many records are left.
func (f *FileReader) Remaining() uint64 { return f.remaining }

// Err returns the first I/O error encountered, if any.
func (f *FileReader) Err() error { return f.err }

// Next implements Generator.
func (f *FileReader) Next(r *Record) bool {
	if f.remaining == 0 || f.err != nil {
		return false
	}
	var buf [fileRecSize]byte
	if _, err := io.ReadFull(f.r, buf[:]); err != nil {
		f.err = fmt.Errorf("trace: reading record: %w", err)
		return false
	}
	decodeRecord(&buf, r)
	f.remaining--
	return true
}

// ReadFrame implements FrameReader: one bulk read covers the whole
// frame, then the fixed-size records decode straight into the columns.
// On a truncated file the complete leading records are still delivered
// — exactly the records a Next loop would have produced before failing
// — and the error is retained for Err.
func (f *FileReader) ReadFrame(fr *Frame) int {
	if f.remaining == 0 || f.err != nil {
		fr.n = 0
		return 0
	}
	want := uint64(fr.cap)
	if f.remaining < want {
		want = f.remaining
	}
	need := int(want) * fileRecSize
	if cap(f.buf) < need {
		f.buf = make([]byte, need)
	}
	buf := f.buf[:need]
	read, err := io.ReadFull(f.r, buf)
	n := read / fileRecSize
	if err != nil {
		f.err = fmt.Errorf("trace: reading record: %w", err)
	}
	for i := 0; i < n; i++ {
		b := buf[i*fileRecSize:]
		fr.Block[i] = binary.LittleEndian.Uint64(b[0:])
		fr.PC[i] = binary.LittleEndian.Uint32(b[8:])
		fr.Instrs[i] = binary.LittleEndian.Uint32(b[12:])
		fr.Work[i] = binary.LittleEndian.Uint32(b[16:])
		fr.Dep[i] = b[20]&1 != 0
	}
	f.remaining -= uint64(n)
	fr.n = n
	return n
}

// ReadAll loads an entire trace file into memory.
func ReadAll(r io.Reader) ([]Record, error) {
	fr, err := NewFileReader(r)
	if err != nil {
		return nil, err
	}
	out := make([]Record, 0, fr.remaining)
	var rec Record
	for fr.Next(&rec) {
		out = append(out, rec)
	}
	if fr.Err() != nil {
		return nil, fr.Err()
	}
	return out, nil
}

// Capture materializes n records from gen (utility for writing trace
// files from the synthetic generators).
func Capture(gen Generator, n int) []Record {
	out := make([]Record, 0, n)
	var rec Record
	for len(out) < n && gen.Next(&rec) {
		out = append(out, rec)
	}
	return out
}

// WriteTape serializes t to w in the versioned columnar tape format.
// ReadTape recovers a tape that replays identically (lossless).
func WriteTape(w io.Writer, t *Tape) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(tapeMagic[:]); err != nil {
		return err
	}
	specJSON, err := json.Marshal(t.spec)
	if err != nil {
		return fmt.Errorf("trace: encoding tape spec: %w", err)
	}
	writeU64 := func(v uint64) { _ = binary.Write(bw, binary.LittleEndian, v) }
	writeU64(tapeVersion)
	writeU64(t.seed)
	writeU64(uint64(len(t.cores)))
	writeU64(t.perCore)
	writeU64(uint64(len(specJSON)))
	if _, err := bw.Write(specJSON); err != nil {
		return err
	}
	var scnJSON []byte
	if t.scenario != nil {
		if scnJSON, err = json.Marshal(t.scenario); err != nil {
			return fmt.Errorf("trace: encoding tape scenario: %w", err)
		}
	}
	writeU64(uint64(len(scnJSON)))
	if _, err := bw.Write(scnJSON); err != nil {
		return err
	}
	writeU64(uint64(len(t.marks)))
	for _, m := range t.marks {
		writeU64(m.Start)
		writeU64(uint64(len(m.Name)))
		if _, err := bw.Write([]byte(m.Name)); err != nil {
			return err
		}
	}
	for i := range t.cores {
		c := &t.cores[i]
		writeU64(c.n)
		writeU64(uint64(len(c.data)))
		if _, err := bw.Write(c.data); err != nil {
			return err
		}
		writeU64(uint64(len(c.pairs)))
		for _, pair := range c.pairs {
			writeU64(pair)
		}
		writeU64(uint64(len(c.dep)))
		for _, word := range c.dep {
			writeU64(word)
		}
		writeU64(uint64(len(c.pcDict)))
		for _, pc := range c.pcDict {
			_ = binary.Write(bw, binary.LittleEndian, pc)
		}
		if c.pcIdx != nil {
			writeU64(1) // dictionary-indexed PC column follows
			writeU64(uint64(len(c.pcIdx)))
			if _, err := bw.Write(c.pcIdx); err != nil {
				return err
			}
		} else {
			writeU64(0) // raw PC column follows
			writeU64(uint64(len(c.pcRaw)))
			for _, pc := range c.pcRaw {
				_ = binary.Write(bw, binary.LittleEndian, pc)
			}
		}
	}
	return bw.Flush()
}

// tapeReader tracks the first error while decoding tape sections.
type tapeReader struct {
	r   *bufio.Reader
	err error
}

func (tr *tapeReader) u64() uint64 {
	var v uint64
	if tr.err == nil {
		tr.err = binary.Read(tr.r, binary.LittleEndian, &v)
	}
	return v
}

// length reads a section length and sanity-bounds it so a corrupt file
// cannot provoke huge allocations.
func (tr *tapeReader) length(what string) int {
	return tr.sized(what, 0, 1<<34)
}

// sized reads a section length and requires lo <= n <= hi; out-of-band
// lengths become errors (and a zero length) before any allocation.
func (tr *tapeReader) sized(what string, lo, hi uint64) int {
	n := tr.u64()
	if tr.err == nil && (n < lo || n > hi) {
		tr.err = fmt.Errorf("trace: tape %s length %d outside [%d, %d]", what, n, lo, hi)
	}
	if tr.err != nil {
		return 0
	}
	return int(n)
}

// tapeChunk bounds how much memory any single declared section length
// can claim before its bytes actually arrive. Reads allocate in chunks
// of at most this size, so a tiny crafted file declaring a 16 GiB
// section costs one chunk and then fails on truncation — never a
// multi-gigabyte make() from untrusted input.
const tapeChunk = 1 << 20

func (tr *tapeReader) bytes(n int) []byte {
	if tr.err != nil || n == 0 {
		return nil
	}
	b := make([]byte, 0, min(n, tapeChunk))
	scratch := make([]byte, min(n, tapeChunk))
	for len(b) < n {
		c := min(n-len(b), tapeChunk)
		if _, err := io.ReadFull(tr.r, scratch[:c]); err != nil {
			tr.err = err
			return nil
		}
		b = append(b, scratch[:c]...)
	}
	return b
}

// u64s reads n little-endian uint64s with the same chunked-allocation
// discipline as bytes (and without binary.Read's per-element reflection).
func (tr *tapeReader) u64s(n int) []uint64 {
	if tr.err != nil || n == 0 {
		return nil
	}
	const wordsPerChunk = tapeChunk / 8
	out := make([]uint64, 0, min(n, wordsPerChunk))
	var buf [8 << 10]byte
	for len(out) < n {
		c := min(n-len(out), len(buf)/8)
		if _, err := io.ReadFull(tr.r, buf[:c*8]); err != nil {
			tr.err = err
			return nil
		}
		for i := 0; i < c; i++ {
			out = append(out, binary.LittleEndian.Uint64(buf[i*8:]))
		}
	}
	return out
}

// u32s is u64s for uint32 columns.
func (tr *tapeReader) u32s(n int) []uint32 {
	if tr.err != nil || n == 0 {
		return nil
	}
	const wordsPerChunk = tapeChunk / 4
	out := make([]uint32, 0, min(n, wordsPerChunk))
	var buf [8 << 10]byte
	for len(out) < n {
		c := min(n-len(out), len(buf)/4)
		if _, err := io.ReadFull(tr.r, buf[:c*4]); err != nil {
			tr.err = err
			return nil
		}
		for i := 0; i < c; i++ {
			out = append(out, binary.LittleEndian.Uint32(buf[i*4:]))
		}
	}
	return out
}

// ReadTape deserializes a columnar tape written by WriteTape.
func ReadTape(r io.Reader) (*Tape, error) {
	tr := &tapeReader{r: bufio.NewReader(r)}
	var magic [8]byte
	if _, err := io.ReadFull(tr.r, magic[:]); err != nil {
		return nil, fmt.Errorf("trace: reading tape header: %w", err)
	}
	if DetectFormat(magic) != FormatTape {
		return nil, fmt.Errorf("trace: bad tape magic %q", magic[:])
	}
	version := tr.u64()
	if tr.err == nil && (version < 1 || version > tapeVersion) {
		return nil, fmt.Errorf("trace: unsupported tape version %d (have %d)", version, tapeVersion)
	}
	t := &Tape{seed: tr.u64()}
	cores := tr.sized("core count", 0, math.MaxUint16)
	t.perCore = tr.u64()
	specJSON := tr.bytes(tr.sized("spec", 0, 1<<24))
	if tr.err == nil {
		if err := json.Unmarshal(specJSON, &t.spec); err != nil {
			return nil, fmt.Errorf("trace: decoding tape spec: %w", err)
		}
	}
	if version >= 2 {
		scnJSON := tr.bytes(tr.sized("scenario", 0, 1<<24))
		if tr.err == nil && len(scnJSON) > 0 {
			var scn Scenario
			if err := json.Unmarshal(scnJSON, &scn); err != nil {
				return nil, fmt.Errorf("trace: decoding tape scenario: %w", err)
			}
			if err := scn.Validate(); err != nil {
				return nil, fmt.Errorf("trace: tape scenario: %w", err)
			}
			t.scenario = &scn
		}
		nMarks := tr.sized("phase marks", 0, 1<<16)
		if nMarks > 0 {
			t.marks = make([]PhaseMark, nMarks)
			for i := range t.marks {
				t.marks[i].Start = tr.u64()
				t.marks[i].Name = string(tr.bytes(tr.sized("phase name", 0, 1<<10)))
				// Marks may start past the budget (a bounded phase longer
				// than the run: the simulator leaves its window empty),
				// but never before the previous phase.
				if tr.err == nil && i > 0 && t.marks[i].Start < t.marks[i-1].Start {
					tr.err = fmt.Errorf("phase mark %d starts at record %d, before mark %d at %d",
						i, t.marks[i].Start, i-1, t.marks[i-1].Start)
				}
			}
		}
	}
	if tr.err == nil && (cores <= 0 || cores > math.MaxUint16) {
		return nil, fmt.Errorf("trace: implausible tape core count %d", cores)
	}
	if tr.err != nil {
		return nil, fmt.Errorf("trace: reading tape: %w", tr.err)
	}
	t.cores = make([]tapeColumns, cores)
	for i := range t.cores {
		c := &t.cores[i]
		c.n = tr.u64()
		// Every column length is cross-checkable against the record
		// count before anything is allocated, so a corrupt or crafted
		// file produces an error, never a multi-gigabyte make() (which
		// would be a fatal OOM, not a recoverable failure).
		if tr.err == nil && c.n > 1<<34 {
			tr.err = fmt.Errorf("implausible record count %d", c.n)
		}
		// Tapes are built from never-dry sources, so every segment holds
		// exactly the budget; a short one would replay short without an
		// error, since run budgets are checked against PerCore alone.
		if tr.err == nil && c.n != t.perCore {
			tr.err = fmt.Errorf("segment holds %d records, tape budget is %d per core", c.n, t.perCore)
		}
		c.data = tr.bytes(tr.sized("data", 0, 32*c.n+16))
		c.pairs = tr.u64s(tr.sized("cost pairs", 0, costEscape))
		depWords := (c.n + 63) / 64
		c.dep = tr.u64s(tr.sized("dep", depWords, depWords))
		c.pcDict = tr.u32s(tr.sized("pc dict", 0, 256))
		switch mode := tr.u64(); {
		case tr.err != nil:
		case mode == 1:
			c.pcIdx = tr.bytes(tr.sized("pc index", c.n, c.n))
			c.pcRaw = nil
		case mode == 0:
			c.pcDict = nil
			c.pcRaw = tr.u32s(tr.sized("pc raw", c.n, c.n))
		default:
			tr.err = fmt.Errorf("trace: unknown tape PC column mode %d", mode)
		}
		if tr.err == nil {
			tr.err = c.validate()
		}
		if tr.err != nil {
			return nil, fmt.Errorf("trace: reading tape core %d: %w", i, tr.err)
		}
		t.bytes += c.footprint()
	}
	return t, nil
}

// validate checks a decoded segment's internal consistency so replay
// cannot index out of bounds on a corrupt file.
func (c *tapeColumns) validate() error {
	switch {
	case c.pcIdx != nil && uint64(len(c.pcIdx)) != c.n:
		return fmt.Errorf("pc index column holds %d of %d records", len(c.pcIdx), c.n)
	case c.pcIdx == nil && uint64(len(c.pcRaw)) != c.n:
		return fmt.Errorf("pc raw column holds %d of %d records", len(c.pcRaw), c.n)
	case uint64(len(c.dep))*64 < c.n:
		return fmt.Errorf("dep bitset holds %d bits for %d records", len(c.dep)*64, c.n)
	}
	for _, idx := range c.pcIdx {
		if int(idx) >= len(c.pcDict) {
			return fmt.Errorf("pc index %d outside dictionary of %d", idx, len(c.pcDict))
		}
	}
	if len(c.pairs) > costEscape {
		return fmt.Errorf("cost-pair dictionary holds %d entries (max %d)", len(c.pairs), costEscape)
	}
	// The interleaved stream must decode exactly n records within bounds.
	off := 0
	for i := uint64(0); i < c.n; i++ {
		if _, off = readUvarintChecked(c.data, off); off < 0 {
			return fmt.Errorf("data stream corrupt in record %d's block delta", i)
		}
		if off >= len(c.data) {
			return fmt.Errorf("data stream truncated at record %d's cost byte", i)
		}
		pi := c.data[off]
		off++
		if pi == costEscape {
			if _, off = readUvarintChecked(c.data, off); off < 0 {
				return fmt.Errorf("data stream corrupt in record %d's instrs", i)
			}
			if _, off = readUvarintChecked(c.data, off); off < 0 {
				return fmt.Errorf("data stream corrupt in record %d's work", i)
			}
		} else if int(pi) >= len(c.pairs) {
			return fmt.Errorf("record %d cost index %d outside dictionary of %d", i, pi, len(c.pairs))
		}
	}
	if off != len(c.data) {
		return fmt.Errorf("data stream has %d trailing bytes", len(c.data)-off)
	}
	return nil
}

// readUvarintChecked is readUvarint with bounds checking for validation;
// it returns off = -1 on truncation or overlong encodings.
func readUvarintChecked(b []byte, off int) (uint64, int) {
	var v uint64
	for shift := uint(0); shift < 70; shift += 7 {
		if off >= len(b) {
			return 0, -1
		}
		c := b[off]
		off++
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, off
		}
	}
	return 0, -1
}
