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
//     trace.Tape — the magic, then one ckpt.Encoder payload (u64
//     lengths and values, little-endian): format version, (seed, cores,
//     per-core budget), the scaled workload spec as length-prefixed
//     JSON, the scenario provenance (version 2: length-prefixed scenario
//     JSON, zero-length for plain spec tapes, plus the phase-mark list),
//     then each core's encoded columns. Tapes carry
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
	"io/fs"
	"math"

	"stms/internal/ckpt"
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

// FileReader streams records from a trace file; it implements Generator
// and ErrReporter.
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

// ReadFrame fills the frame with one bulk read, then decodes the
// fixed-size records straight into the columns. On a truncated file the
// complete leading records are still delivered, whatever the frame's
// capacity, and the error is retained for Err.
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
	// The header's record count is untrusted: the slice grows with the
	// records actually read, never from the declared count.
	var out []Record
	var rec Record
	f := NewFrame()
	for n := fr.ReadFrame(f); n > 0; n = fr.ReadFrame(f) {
		for i := range n {
			f.Record(i, &rec)
			out = append(out, rec)
		}
	}
	if fr.Err() != nil {
		return nil, fr.Err()
	}
	return out, nil
}

// WriteTape serializes t to w in the versioned columnar tape format:
// the magic, then one ckpt.Encoder payload. ReadTape recovers a tape
// that replays identically (lossless).
func WriteTape(w io.Writer, t *Tape) error {
	specJSON, err := json.Marshal(t.spec)
	if err != nil {
		return fmt.Errorf("trace: encoding tape spec: %w", err)
	}
	var scnJSON []byte
	if t.scenario != nil {
		if scnJSON, err = json.Marshal(t.scenario); err != nil {
			return fmt.Errorf("trace: encoding tape scenario: %w", err)
		}
	}
	enc := ckpt.NewEncoder()
	enc.U64(tapeVersion)
	enc.U64(t.seed)
	enc.U64(uint64(len(t.cores)))
	enc.U64(t.perCore)
	enc.Bytes(specJSON)
	enc.Bytes(scnJSON)
	enc.U64(uint64(len(t.marks)))
	for _, m := range t.marks {
		enc.U64(m.Start)
		enc.String(m.Name)
	}
	for i := range t.cores {
		c := &t.cores[i]
		enc.U64(c.n)
		enc.Bytes(c.data)
		enc.U64s(c.pairs)
		enc.U64s(c.dep)
		enc.U32s(c.pcDict)
		if c.pcIdx != nil {
			enc.U64(1) // dictionary-indexed PC column follows
			enc.Bytes(c.pcIdx)
		} else {
			enc.U64(0) // raw PC column follows
			enc.U32s(c.pcRaw)
		}
	}
	if _, err := w.Write(tapeMagic[:]); err != nil {
		return err
	}
	_, err = w.Write(enc.Payload())
	return err
}

// ReadTape deserializes a columnar tape written by WriteTape. It reads
// r to EOF: bytes after the last core are an error. Section lengths are
// checked against the bytes actually present, and the core and mark
// counts against fixed bounds, before anything is sized from them, so a
// corrupt or crafted file produces an error, never a multi-gigabyte
// make() (which would be a fatal OOM, not a recoverable failure). When r
// can report its size (an *os.File), the read buffer is sized from it
// once. The data and PC-index columns, nearly all of a tape's bytes, are
// views of that buffer rather than copies, so a loaded tape holds its
// file about once.
func ReadTape(r io.Reader) (*Tape, error) {
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("trace: reading tape header: %w", err)
	}
	if DetectFormat(magic) != FormatTape {
		return nil, fmt.Errorf("trace: bad tape magic %q", magic[:])
	}
	payload, err := readRest(r)
	if err != nil {
		return nil, fmt.Errorf("trace: reading tape: %w", err)
	}
	d := ckpt.NewDecoder(payload)
	version := d.U64()
	if d.Err() == nil && (version < 1 || version > tapeVersion) {
		return nil, fmt.Errorf("trace: unsupported tape version %d (have %d)", version, tapeVersion)
	}
	t := &Tape{seed: d.U64()}
	cores := d.U64()
	t.perCore = d.U64()
	specJSON := d.Bytes()
	if err := sized("spec", uint64(len(specJSON)), 0, 1<<24); err != nil {
		return nil, err
	}
	if d.Err() == nil {
		if err := json.Unmarshal(specJSON, &t.spec); err != nil {
			return nil, fmt.Errorf("trace: decoding tape spec: %w", err)
		}
	}
	if version >= 2 {
		if err := t.readScenario(d); err != nil {
			return nil, err
		}
	}
	if d.Err() == nil && (cores == 0 || cores > math.MaxUint16) {
		return nil, fmt.Errorf("trace: implausible tape core count %d", cores)
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("trace: reading tape: %w", err)
	}
	// Cores are appended as they decode (marks too, in readScenario), so
	// the slices grow with the bytes present, not the declared counts.
	for i := uint64(0); i < cores; i++ {
		var c tapeColumns
		if err := c.read(d, t.perCore); err != nil {
			return nil, fmt.Errorf("trace: reading tape core %d: %w", i, err)
		}
		t.bytes += c.footprint()
		t.cores = append(t.cores, c)
	}
	if n := d.Remaining(); n > 0 {
		return nil, fmt.Errorf("trace: tape has %d trailing bytes after its last core", n)
	}
	return t, nil
}

// readRest reads r to EOF. A reader that reports its size through Stat
// (an *os.File) gets a buffer of that size up front, so the read never
// regrows; the size is only a capacity hint, so a file that is shorter
// or grows still reads exactly. (A bytes.Buffer would allocate its
// first buffer twice in race-instrumented builds.)
func readRest(r io.Reader) ([]byte, error) {
	size := 512
	if st, ok := r.(interface{ Stat() (fs.FileInfo, error) }); ok {
		if fi, err := st.Stat(); err == nil {
			size += int(fi.Size())
		}
	}
	buf := make([]byte, 0, size)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// readScenario decodes a version-2 tape's scenario provenance: the
// scenario JSON (empty for plain spec tapes) and the phase-mark list.
func (t *Tape) readScenario(d *ckpt.Decoder) error {
	scnJSON := d.Bytes()
	if err := sized("scenario", uint64(len(scnJSON)), 0, 1<<24); err != nil {
		return err
	}
	if d.Err() == nil && len(scnJSON) > 0 {
		var scn Scenario
		if err := json.Unmarshal(scnJSON, &scn); err != nil {
			return fmt.Errorf("trace: decoding tape scenario: %w", err)
		}
		if err := scn.Validate(); err != nil {
			return fmt.Errorf("trace: tape scenario: %w", err)
		}
		t.scenario = &scn
	}
	nMarks := d.U64()
	if d.Err() != nil || nMarks == 0 {
		return nil
	}
	if err := sized("phase marks", nMarks, 0, 1<<16); err != nil {
		return err
	}
	for i := uint64(0); i < nMarks && d.Err() == nil; i++ {
		m := PhaseMark{Start: d.U64(), Name: d.String()}
		if err := sized("phase name", uint64(len(m.Name)), 0, 1<<10); err != nil {
			return err
		}
		// Marks may start past the budget (a bounded phase longer than
		// the run: the simulator leaves its window empty), but never
		// before the previous phase.
		if d.Err() == nil && i > 0 && m.Start < t.marks[i-1].Start {
			return fmt.Errorf("trace: reading tape: phase mark %d starts at record %d, before mark %d at %d",
				i, m.Start, i-1, t.marks[i-1].Start)
		}
		t.marks = append(t.marks, m)
	}
	return nil
}

// sized requires a decoded section length n to lie in [lo, hi].
func sized(what string, n, lo, hi uint64) error {
	if n < lo || n > hi {
		return fmt.Errorf("trace: tape %s length %d outside [%d, %d]", what, n, lo, hi)
	}
	return nil
}

// read decodes one core's segment and validates it against the tape's
// per-core budget.
func (c *tapeColumns) read(d *ckpt.Decoder, perCore uint64) error {
	c.n = d.U64()
	// Tapes are built from never-dry sources, so every segment holds
	// exactly the budget; a short one would replay short without an
	// error, since run budgets are checked against PerCore alone.
	if d.Err() == nil && c.n != perCore {
		return fmt.Errorf("segment holds %d records, tape budget is %d per core", c.n, perCore)
	}
	c.data = d.View()
	c.pairs = d.U64s()
	c.dep = d.U64s()
	c.pcDict = d.U32s()
	switch mode := d.U64(); {
	case d.Err() != nil:
	case mode == 1:
		c.pcIdx = d.View()
	case mode == 0:
		c.pcDict = nil
		c.pcRaw = d.U32s()
	default:
		return fmt.Errorf("trace: unknown tape PC column mode %d", mode)
	}
	if err := d.Err(); err != nil {
		return err
	}
	return c.validate()
}

// validate checks a decoded segment's internal consistency so replay
// cannot index out of bounds on a corrupt file.
func (c *tapeColumns) validate() error {
	if c.n > 1<<34 {
		return fmt.Errorf("implausible record count %d", c.n)
	}
	depWords := (c.n + 63) / 64
	pcWhat, pcs := "pc raw", len(c.pcRaw)
	if c.pcIdx != nil {
		pcWhat, pcs = "pc index", len(c.pcIdx)
	}
	for _, l := range []struct {
		what      string
		n, lo, hi uint64
	}{
		{"data", uint64(len(c.data)), 0, 32*c.n + 16},
		{"cost pairs", uint64(len(c.pairs)), 0, costEscape},
		{"dep", uint64(len(c.dep)), depWords, depWords},
		{"pc dict", uint64(len(c.pcDict)), 0, 256},
		{pcWhat, uint64(pcs), c.n, c.n},
	} {
		if err := sized(l.what, l.n, l.lo, l.hi); err != nil {
			return err
		}
	}
	for _, idx := range c.pcIdx {
		if int(idx) >= len(c.pcDict) {
			return fmt.Errorf("pc index %d outside dictionary of %d", idx, len(c.pcDict))
		}
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
