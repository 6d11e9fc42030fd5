package trace

import (
	"bytes"
	"strings"
	"testing"
)

// take reads up to n records from g through frames of capacity c. The
// last frame is capped at the records still owed, so g ends exactly n
// records further on (or dry, if it held fewer).
func take(t *testing.T, g Generator, n, c int) []Record {
	t.Helper()
	l := &Limit{Gen: g, N: uint64(n)}
	f := NewFrameCap(c)
	out := make([]Record, 0, min(n, 1<<16))
	var rec Record
	for {
		got := l.ReadFrame(f)
		if got != f.Len() {
			t.Fatalf("ReadFrame returned %d but frame len is %d", got, f.Len())
		}
		if got == 0 {
			return out
		}
		for i := 0; i < got; i++ {
			f.Record(i, &rec)
			out = append(out, rec)
		}
	}
}

func recordsEqual(t *testing.T, what string, want, got []Record) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d records, want %d", what, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: record %d differs: got %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

// frameCaps are the capacities every source is read at: 1 is the
// record-at-a-time reference, 97 and 513 break frames off phase and
// segment boundaries, and FrameCap is what the drivers use.
var frameCaps = []int{1, 97, 513, FrameCap}

// TestFrameSizeIndependence is the frame contract: every stored or
// bounded record source yields one record sequence whatever the capacity
// of the frames it fills, including where it runs dry or fails. Live
// generators and scenarios are held to it by the two
// TestReadFrameMatchesNext tests below.
func TestFrameSizeIndependence(t *testing.T) {
	type source struct {
		name  string
		n     int              // records to read (bounded sources hold fewer)
		open  func() Generator // a fresh source
		after func(t *testing.T, g Generator, got []Record)
	}
	var sources []source

	oltp, err := ByName("oltp-db2")
	if err != nil {
		t.Fatal(err)
	}
	flip, err := ScenarioByName("phase-flip")
	if err != nil {
		t.Fatal(err)
	}
	specTape := NewTape(oltp.Scaled(0.0625), 3, 1, 16_384)
	scnTape := NewScenarioTape(flip.Scaled(0.0625), 5, 1, 16_384)
	for name, tp := range map[string]*Tape{"spec tape": specTape, "scenario tape": scnTape} {
		sources = append(sources, source{name: name, n: 20_000,
			open: func() Generator { return tp.Cursor(0) },
			after: func(t *testing.T, g Generator, got []Record) {
				if len(got) != 16_384 || g.(*Cursor).Remaining() != 0 {
					t.Fatalf("cursor read %d records, %d left", len(got), g.(*Cursor).Remaining())
				}
			}})
	}

	recs := take(t, NewGenerator(NewLibrary(oltp.Scaled(0.0625), 2), 0, 2), 3000, FrameCap)
	sources = append(sources,
		source{name: "limit over a dry source", n: 5000,
			open: func() Generator { return &Limit{Gen: &SliceGenerator{Records: recs}, N: 4000} },
			after: func(t *testing.T, g Generator, got []Record) {
				if l := g.(*Limit); len(got) != 3000 || l.N != 1000 {
					t.Fatalf("limit read %d records with %d unclaimed, want 3000 and 1000", len(got), l.N)
				}
			}},
		source{name: "slice", n: 5000,
			open: func() Generator { return &SliceGenerator{Records: recs} },
			after: func(t *testing.T, g Generator, got []Record) {
				recordsEqual(t, "slice", recs, got)
			}})

	var flat bytes.Buffer
	if err := WriteAll(&flat, recs); err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 10*fileRecSize + 7} {
		data := flat.Bytes()[:flat.Len()-cut]
		want := len(recs) - (cut+fileRecSize-1)/fileRecSize
		sources = append(sources, source{name: "file", n: 5000,
			open: func() Generator {
				fr, err := NewFileReader(bytes.NewReader(data))
				if err != nil {
					t.Fatal(err)
				}
				return fr
			},
			after: func(t *testing.T, g Generator, got []Record) {
				recordsEqual(t, "file", recs[:want], got)
				if err := g.(*FileReader).Err(); (err != nil) != (cut > 0) {
					t.Fatalf("file cut by %d bytes: Err %v", cut, err)
				}
			}})
	}

	var instrs []csInstr
	for i := 0; i < 2000; i++ {
		in := csInstr{ip: 0x1000 + uint64(4*i), destRegs: [2]uint8{uint8(i % 5)}, srcRegs: [4]uint8{uint8(i % 3)}}
		for k := 0; k < i%4; k++ {
			in.srcMem[k] = uint64(0x4000 + 64*(3*i+k))
		}
		instrs = append(instrs, in)
	}
	cs := csTrace(instrs...)
	for _, tail := range [][]byte{nil, {1, 2, 3}} {
		data := append(bytes.Clone(cs), tail...)
		sources = append(sources, source{name: "champsim", n: 5000,
			open: func() Generator {
				rd, err := NewChampSimReader(bytes.NewReader(data))
				if err != nil {
					t.Fatal(err)
				}
				return rd
			},
			after: func(t *testing.T, g Generator, got []Record) {
				rd := g.(*ChampSimReader)
				if rd.Records() != uint64(len(got)) || rd.Instructions() != uint64(len(instrs)) {
					t.Fatalf("champsim: %d instrs -> %d records, read %d", rd.Instructions(), rd.Records(), len(got))
				}
				if err := rd.Err(); (err != nil) != (tail != nil) || (err != nil && !strings.Contains(err.Error(), "truncated")) {
					t.Fatalf("champsim with tail %v: Err %v", tail, err)
				}
			}})
	}

	for _, s := range sources {
		sameAtEveryCap(t, s.name, s.n, s.open, s.after)
	}
}

// sameAtEveryCap reads n records from a fresh source at each of
// frameCaps and checks every capacity yields the capacity-1 sequence.
// after, if set, inspects the source once each read is done.
func sameAtEveryCap(t *testing.T, name string, n int, open func() Generator, after func(*testing.T, Generator, []Record)) {
	t.Helper()
	var want []Record
	for _, c := range frameCaps {
		g := open()
		got := take(t, g, n, c)
		if c == 1 {
			want = got
		} else {
			recordsEqual(t, name, want, got)
		}
		if after != nil {
			after(t, g, got)
		}
	}
}

// TestReadFrameMatchesNextAllWorkloads checks every built-in workload's
// live generator: frames of any capacity carry the record-at-a-time
// sequence that capacity-1 frames give.
func TestReadFrameMatchesNextAllWorkloads(t *testing.T) {
	for _, spec := range Specs() {
		spec := spec.Scaled(0.0625)
		sameAtEveryCap(t, "live "+spec.Name, 20_000,
			func() Generator { return NewGenerator(NewLibrary(spec, 7), 0, 7) }, nil)
	}
}

// TestReadFrameMatchesNextScenarios runs the same property over the
// whole built-in scenario suite, on both cores, with capacities that
// land mid-phase, at phase boundaries, and across drift sub-segments.
func TestReadFrameMatchesNextScenarios(t *testing.T) {
	const perCore = 24_000
	for _, scn := range Scenarios() {
		scn := scn.Scaled(0.0625)
		for core := 0; core < 2; core++ {
			sameAtEveryCap(t, "scenario "+scn.Name, perCore, func() Generator {
				gens, _, err := scn.Generators(11, 2, perCore)
				if err != nil {
					t.Fatalf("%s: %v", scn.Name, err)
				}
				return gens[core]
			}, nil)
		}
	}
}

// TestCursorReadFrameMatchesLive checks the tape decode: frames decoded
// from a materialized tape equal the live generator's frames, for plain
// specs and for a phase-structured scenario tape.
func TestCursorReadFrameMatchesLive(t *testing.T) {
	const perCore = 16_384
	spec, err := ByName("oltp-db2")
	if err != nil {
		t.Fatal(err)
	}
	spec = spec.Scaled(0.0625)
	tape := NewTape(spec, 3, 2, perCore)
	lib := NewLibrary(spec, 3)
	for core := 0; core < 2; core++ {
		want := take(t, NewGenerator(lib, core, 3), perCore, FrameCap)
		got := take(t, tape.Cursor(core), perCore, 1000)
		recordsEqual(t, "tape oltp-db2", want, got)
	}

	scn, err := ScenarioByName("phase-flip")
	if err != nil {
		t.Fatal(err)
	}
	scn = scn.Scaled(0.0625)
	stape := NewScenarioTape(scn, 5, 2, perCore)
	live, _, err := scn.Generators(5, 2, perCore)
	if err != nil {
		t.Fatal(err)
	}
	for core := 0; core < 2; core++ {
		want := take(t, live[core], perCore, FrameCap)
		got := take(t, stape.Cursor(core), perCore, 1000)
		recordsEqual(t, "tape phase-flip", want, got)
	}
}

// TestScenarioFrameAtPhaseMark fills frames whose boundaries land
// exactly on, just before, and just after a phase boundary; the record
// sequence must match a record-at-a-time read in all three alignments.
func TestScenarioFrameAtPhaseMark(t *testing.T) {
	a, err := ByName("web-apache")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ByName("oltp-db2")
	if err != nil {
		t.Fatal(err)
	}
	a, b = a.Scaled(0.0625), b.Scaled(0.0625)
	scn := Sequence("mark-align",
		Phase{Name: "a", Records: 1024, Spec: a},
		Phase{Name: "b", Records: 1024, Spec: b},
		Phase{Name: "tail", Spec: a},
	)
	const perCore = 4096
	for _, frameCap := range []int{1024, 1023, 1025} {
		ga, _, err := scn.Generators(9, 1, perCore)
		if err != nil {
			t.Fatal(err)
		}
		gb, _, err := scn.Generators(9, 1, perCore)
		if err != nil {
			t.Fatal(err)
		}
		want := take(t, ga[0], perCore, 1)
		got := take(t, gb[0], perCore, frameCap)
		recordsEqual(t, "mark-align", want, got)
	}
}

// TestLimitReadFrameBudget covers the bounded-generator frame edges: a
// frame larger than the remaining budget, the empty final frame, and
// budget preservation over a dry source.
func TestLimitReadFrameBudget(t *testing.T) {
	recs := make([]Record, 25)
	for i := range recs {
		recs[i] = Record{PC: uint32(i), Block: uint64(i) * 3, Instrs: 1, Work: 1}
	}

	// Frame larger than the remaining budget: only the budget fills.
	l := &Limit{Gen: &SliceGenerator{Records: recs}, N: 10}
	f := NewFrameCap(64)
	if n := l.ReadFrame(f); n != 10 || f.Len() != 10 {
		t.Fatalf("ReadFrame over 10-budget = %d (len %d), want 10", n, f.Len())
	}
	if f.Cap() != 64 {
		t.Fatalf("frame capacity not restored: %d", f.Cap())
	}
	if l.N != 0 {
		t.Fatalf("budget after full drain = %d, want 0", l.N)
	}
	// Empty final frame: the exhausted budget reads zero records.
	if n := l.ReadFrame(f); n != 0 || f.Len() != 0 {
		t.Fatalf("ReadFrame after budget = %d (len %d), want 0", n, f.Len())
	}

	// A dry source must not burn the remaining budget.
	l = &Limit{Gen: &SliceGenerator{Records: recs[:4]}, N: 100}
	if n := l.ReadFrame(f); n != 4 {
		t.Fatalf("ReadFrame over dry source = %d, want 4", n)
	}
	if l.N != 96 {
		t.Fatalf("budget after dry source = %d, want 96 unclaimed", l.N)
	}

	// Budget an exact multiple of the frame size: a full frame, then an
	// empty final frame, never a phantom record.
	l = &Limit{Gen: &SliceGenerator{Records: recs}, N: 20}
	small := NewFrameCap(10)
	if n := l.ReadFrame(small); n != 10 {
		t.Fatalf("first frame = %d, want 10", n)
	}
	if n := l.ReadFrame(small); n != 10 {
		t.Fatalf("second frame = %d, want 10", n)
	}
	if n := l.ReadFrame(small); n != 0 {
		t.Fatalf("final frame = %d, want 0", n)
	}
}

// TestFileReaderReadFrame checks the batched file decode against the
// records written, and that a truncated file still yields the complete
// leading records.
func TestFileReaderReadFrame(t *testing.T) {
	spec, err := ByName("web-zeus")
	if err != nil {
		t.Fatal(err)
	}
	spec = spec.Scaled(0.0625)
	lib := NewLibrary(spec, 2)
	recs := take(t, NewGenerator(lib, 0, 2), 3000, FrameCap)

	var buf bytes.Buffer
	if err := WriteAll(&buf, recs); err != nil {
		t.Fatal(err)
	}
	fileBytes := buf.Bytes()

	fr, err := NewFileReader(bytes.NewReader(fileBytes))
	if err != nil {
		t.Fatal(err)
	}
	recordsEqual(t, "file", recs, take(t, fr, len(recs)+1, 700))

	// Truncate mid-record: the complete leading records still arrive,
	// then the reader reports the error.
	cut := 16 + 10*fileRecSize + 7
	frC, err := NewFileReader(bytes.NewReader(fileBytes[:cut]))
	if err != nil {
		t.Fatal(err)
	}
	f := NewFrameCap(64)
	if n := frC.ReadFrame(f); n != 10 {
		t.Fatalf("truncated file frame = %d records, want 10", n)
	}
	if frC.Err() == nil {
		t.Fatal("truncated file: Err() should be set")
	}
	if n := frC.ReadFrame(f); n != 0 {
		t.Fatalf("read past truncation = %d, want 0", n)
	}
}
