package trace

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestTapeMatchesLiveGeneration is the tape substrate's core property:
// for every named workload, a Tape cursor replays the exact record
// sequence of a live generator over the same library — per core, for
// the full materialized budget, and running dry exactly at the end.
func TestTapeMatchesLiveGeneration(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			spec, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			spec = spec.Scaled(0.0625)
			const cores, perCore = 3, 20_000
			tape := NewTape(spec, 99, cores, perCore)
			if tape.Cores() != cores || tape.PerCore() != perCore {
				t.Fatalf("tape shape %d×%d", tape.Cores(), tape.PerCore())
			}
			lib := NewLibrary(spec, 99)
			gens := make([]Generator, cores)
			for c := range gens {
				gens[c] = NewGenerator(lib, c, 99)
			}
			for c := 0; c < cores; c++ {
				cur := tape.Cursor(c)
				if cur.Remaining() != perCore {
					t.Fatalf("core %d holds %d records", c, cur.Remaining())
				}
				// One more than the budget: the cursor must run dry
				// exactly at the end.
				got := take(t, cur, perCore+1, FrameCap)
				want := take(t, gens[c], perCore, FrameCap)
				recordsEqual(t, name, want, got)
				// Reset rewinds to the exact first record.
				cur.Reset()
				if a, b := take(t, cur, 1, 1), take(t, tape.Cursor(c), 1, 1); a[0] != b[0] {
					t.Fatal("Reset did not rewind to the first record")
				}
			}
		})
	}
}

// TestTapeCursorZeroAlloc pins the zero-allocation replay contract.
func TestTapeCursorZeroAlloc(t *testing.T) {
	spec, _ := ByName("oltp-db2")
	spec = spec.Scaled(0.0625)
	tape := NewTape(spec, 5, 1, 50_000)
	cur := tape.Cursor(0)
	f := NewFrame()
	allocs := testing.AllocsPerRun(200, func() {
		if cur.ReadFrame(f) == 0 {
			cur.Reset()
		}
	})
	if allocs != 0 {
		t.Fatalf("cursor ReadFrame allocates %.1f per call", allocs)
	}
}

// TestTapeBoundedSource covers segment budgets: workload generators
// fill exactly the budget, and a source that runs dry early yields a
// short segment whose cursor runs dry at the same point.
func TestTapeBoundedSource(t *testing.T) {
	spec, _ := ByName("web-zeus")
	spec = spec.Scaled(0.0625)
	tape := NewTape(spec, 3, 2, 100)
	if tape.Len(0) != 100 || tape.Len(1) != 100 {
		t.Fatalf("segments hold %d/%d records", tape.Len(0), tape.Len(1))
	}
	if tape.Bytes() <= 0 {
		t.Fatal("tape reports no footprint")
	}

	short := encodeSegment(&SliceGenerator{Records: []Record{
		{Block: 7, PC: 1, Instrs: 1, Work: 1},
		{Block: 9, PC: 2, Instrs: 1, Work: 1},
	}}, 100)
	if short.n != 2 {
		t.Fatalf("dry source segment holds %d records, want 2", short.n)
	}
	cur := &Cursor{col: &short, n: short.n}
	if n := len(take(t, cur, 3, 1)); n != 2 {
		t.Fatalf("short segment cursor ran dry after %d records, want 2", n)
	}
}

// TestTapePCDictionaryOverflow forces more than 256 distinct PCs so the
// raw-column fallback engages, and checks the replay is still exact.
func TestTapePCDictionaryOverflow(t *testing.T) {
	recs := pcOverflowRecords()
	col := encodeSegment(&SliceGenerator{Records: recs}, uint64(len(recs)))
	if col.pcIdx != nil || col.pcRaw == nil {
		t.Fatal("dictionary did not overflow into the raw column")
	}
	recordsEqual(t, "pc overflow", recs, take(t, &Cursor{col: &col, n: col.n}, len(recs), FrameCap))
}

// TestTapeCostEscapeRoundTrip drives a segment past the 255-entry cost
// pair dictionary so the inline escape engages, and checks the exact
// replay at every frame capacity and through a file round trip.
func TestTapeCostEscapeRoundTrip(t *testing.T) {
	recs := costEscapeRecords()
	tape := recordTape(recs)
	// 601 distinct pairs: a full dictionary means the rest escaped.
	if n := len(tape.cores[0].pairs); n != costEscape {
		t.Fatalf("pair dictionary holds %d entries, want it full at %d", n, costEscape)
	}
	var buf bytes.Buffer
	if err := WriteTape(&buf, tape); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadTape(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range []*Tape{tape, loaded} {
		// 700-record frames straddle escaped and indexed records.
		for _, c := range []int{1, 700} {
			recordsEqual(t, "cost escape", recs, take(t, tp.Cursor(0), len(recs)+1, c))
		}
	}
}

// TestEncodeSegmentFixedAllocs pins the encoder's allocations to a
// constant per segment, whatever its length: re-encoding a tape segment
// from its own (allocation-free) cursor reproduces the columns exactly.
func TestEncodeSegmentFixedAllocs(t *testing.T) {
	spec, _ := ByName("oltp-db2")
	tape := NewTape(spec.Scaled(0.0625), 5, 1, 40_000)
	if col := encodeSegment(tape.Cursor(0), tape.Len(0)); !reflect.DeepEqual(col, tape.cores[0]) {
		t.Fatal("re-encoded segment differs from the original")
	}
	var allocs [2]float64
	for i, n := range []uint64{10_000, 40_000} {
		allocs[i] = testing.AllocsPerRun(5, func() { encodeSegment(tape.CursorN(0, n), n) })
	}
	if allocs[0] != allocs[1] {
		t.Fatalf("encoder allocs %v per segment at 10k and 40k records", allocs)
	}
}

// shortSegmentTape patches a serialized tape's per-core budget to twice
// what its segments hold, as a corrupt disk or peer copy might.
func shortSegmentTape(valid []byte) []byte {
	const perCoreOff = 8 + 3*8 // magic, version, seed, cores
	short := bytes.Clone(valid)
	pc := binary.LittleEndian.Uint64(short[perCoreOff:])
	binary.LittleEndian.PutUint64(short[perCoreOff:], 2*pc)
	return short
}

// TestTapeFileRejectsShortSegments: a tape whose segments hold fewer
// records than its budget would replay short with no error (run
// budgets are checked against PerCore), so the reader refuses it.
func TestTapeFileRejectsShortSegments(t *testing.T) {
	spec, _ := ByName("web-apache")
	var buf bytes.Buffer
	if err := WriteTape(&buf, NewTape(spec.Scaled(0.0625), 1, 2, 2000)); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadTape(bytes.NewReader(shortSegmentTape(buf.Bytes()))); err == nil ||
		!strings.Contains(err.Error(), "segment holds 2000 records, tape budget is 4000") {
		t.Fatalf("short segments: err %v", err)
	}
}

// TestTapeFilePhaseMarks: marks that run backwards are corrupt, while
// marks past the budget are what a scenario whose bounded phases outrun
// the run writes, and round-trip.
func TestTapeFilePhaseMarks(t *testing.T) {
	spec, _ := ByName("web-apache")
	spec = spec.Scaled(0.01)
	scn := Sequence("long-phase", Phase{Spec: spec, Records: 1000}, Phase{Spec: spec})
	tape := NewScenarioTape(scn, 7, 2, 96)
	if m := tape.Marks(); len(m) != 2 || m[1].Start != 1000 {
		t.Fatalf("marks %+v", m)
	}
	var buf bytes.Buffer
	if err := WriteTape(&buf, tape); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTape(&buf)
	if err != nil {
		t.Fatalf("marks past the budget rejected: %v", err)
	}
	if !reflect.DeepEqual(got.Marks(), tape.Marks()) {
		t.Fatalf("marks %+v, want %+v", got.Marks(), tape.Marks())
	}

	tape.marks = []PhaseMark{{Name: "a", Start: 0}, {Name: "b", Start: 50}, {Name: "c", Start: 20}}
	buf.Reset()
	if err := WriteTape(&buf, tape); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadTape(&buf); err == nil || !strings.Contains(err.Error(), "phase mark 2 starts at record 20") {
		t.Fatalf("backward marks: err %v", err)
	}
}

// TestTapeFileRoundTrip: save→load must be lossless — identical
// metadata, identical columns, identical replay.
func TestTapeFileRoundTrip(t *testing.T) {
	for _, name := range []string{"web-apache", "sci-moldyn"} {
		spec, _ := ByName(name)
		spec = spec.Scaled(0.0625)
		tape := NewTape(spec, 123, 2, 5_000)

		var buf bytes.Buffer
		if err := WriteTape(&buf, tape); err != nil {
			t.Fatal(err)
		}
		got, err := ReadTape(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(tape.spec, got.spec) {
			t.Fatalf("%s: spec not preserved: %+v vs %+v", name, got.spec, tape.spec)
		}
		if got.seed != tape.seed || got.perCore != tape.perCore || got.Cores() != tape.Cores() {
			t.Fatalf("%s: metadata not preserved", name)
		}
		if got.Bytes() != tape.Bytes() {
			t.Fatalf("%s: footprint %d != %d", name, got.Bytes(), tape.Bytes())
		}
		for c := 0; c < tape.Cores(); c++ {
			want := take(t, tape.Cursor(c), 10_000, FrameCap)
			recordsEqual(t, name, want, take(t, got.Cursor(c), 10_000, FrameCap))
		}
	}
}

// TestReadTapeFileAllocation: a tape file's read buffer is sized once
// from the file's size, and the data and PC-index columns are views of
// it, so ReadTape allocates about the file once — not the payload plus
// copies of its columns, nor the run of copies a buffer that grows by
// doubling leaves behind.
func TestReadTapeFileAllocation(t *testing.T) {
	spec, _ := ByName("oltp-db2")
	path := filepath.Join(t.TempDir(), "t.tape")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteTape(f, NewTape(spec.Scaled(0.0625), 1, 4, 50_000)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	f, err = os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	size := uint64(fi.Size())
	n := allocated(func() { _, err = ReadTape(f) })
	if err != nil {
		t.Fatal(err)
	}
	if n > 3*size/2 {
		t.Fatalf("ReadTape allocated %d bytes for a %d-byte tape file, want at most 1.5x", n, size)
	}
	t.Logf("ReadTape allocated %.2fx the %d-byte tape file", float64(n)/float64(size), size)
}

// TestTapeFileRejectsCorruption exercises the reader's validation.
func TestTapeFileRejectsCorruption(t *testing.T) {
	spec, _ := ByName("web-apache")
	spec = spec.Scaled(0.0625)
	tape := NewTape(spec, 1, 1, 500)
	var buf bytes.Buffer
	if err := WriteTape(&buf, tape); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	truncated := good[:len(good)/2]
	if _, err := ReadTape(bytes.NewReader(truncated)); err == nil {
		t.Fatal("truncated tape accepted")
	}

	badMagic := append([]byte(nil), good...)
	badMagic[0] = 'X'
	if _, err := ReadTape(bytes.NewReader(badMagic)); err == nil {
		t.Fatal("bad magic accepted")
	}

	trailing := append(append([]byte(nil), good...), 0)
	if _, err := ReadTape(bytes.NewReader(trailing)); err == nil || !strings.Contains(err.Error(), "1 trailing bytes") {
		t.Fatalf("tape with trailing bytes: err %v", err)
	}

	badVersion := append([]byte(nil), good...)
	badVersion[8] = 0xFF
	if _, err := ReadTape(bytes.NewReader(badVersion)); err == nil {
		t.Fatal("unknown version accepted")
	}

	// Flat record traces are a different format, not a broken tape.
	var flat bytes.Buffer
	if err := WriteAll(&flat, []Record{{Block: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadTape(&flat); err == nil {
		t.Fatal("flat record trace accepted as tape")
	}
	var magic [8]byte
	copy(magic[:], good[:8])
	if DetectFormat(magic) != FormatTape {
		t.Fatal("tape magic not detected")
	}
	copy(magic[:], fileMagic[:])
	if DetectFormat(magic) != FormatRecords {
		t.Fatal("record magic not detected")
	}
}

// BenchmarkTapeBuild measures tape materialization — generation plus
// columnar encoding — for one Fig. 8 workload at the benchmark's scale,
// 4 cores × 200k records. ns/record is build wall time per record;
// B/record is the built tape's columnar footprint per record.
func BenchmarkTapeBuild(b *testing.B) {
	spec, err := ByName(FigureEight()[0])
	if err != nil {
		b.Fatal(err)
	}
	spec = spec.Scaled(0.125)
	const cores, perCore = 4, 200_000
	var tape *Tape
	for b.Loop() {
		tape = NewTape(spec, 42, cores, perCore)
	}
	records := float64(cores * perCore)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/records, "ns/record")
	b.ReportMetric(float64(tape.Bytes())/records, "B/record")
}
