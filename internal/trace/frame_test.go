package trace

import (
	"bytes"
	"testing"
)

// drainNext pulls n records from gen through the record-at-a-time path.
func drainNext(t *testing.T, gen Generator, n int) []Record {
	t.Helper()
	out := make([]Record, 0, n)
	var rec Record
	for len(out) < n && gen.Next(&rec) {
		out = append(out, rec)
	}
	return out
}

// drainFrames pulls up to n records from gen through frames of capacity
// frameCap, exercising partial final frames and dry sources.
func drainFrames(t *testing.T, gen Generator, n, frameCap int) []Record {
	t.Helper()
	f := NewFrameCap(frameCap)
	out := make([]Record, 0, n)
	var rec Record
	for len(out) < n {
		got := FillFrame(gen, f)
		if got == 0 {
			break
		}
		if got != f.Len() {
			t.Fatalf("FillFrame returned %d but frame len is %d", got, f.Len())
		}
		for i := 0; i < got && len(out) < n; i++ {
			f.Record(i, &rec)
			out = append(out, rec)
		}
	}
	return out
}

func recordsEqual(t *testing.T, what string, next, framed []Record) {
	t.Helper()
	if len(next) != len(framed) {
		t.Fatalf("%s: Next produced %d records, ReadFrame %d", what, len(next), len(framed))
	}
	for i := range next {
		if next[i] != framed[i] {
			t.Fatalf("%s: record %d differs: Next %+v, ReadFrame %+v", what, i, next[i], framed[i])
		}
	}
}

// TestReadFrameMatchesNextAllWorkloads is the core equivalence property:
// for every workload in the suite, the batched ReadFrame path produces
// bit-identical record sequences to Next — including at frame sizes that
// do not divide the record count.
func TestReadFrameMatchesNextAllWorkloads(t *testing.T) {
	const n = 20_000
	for _, spec := range Specs() {
		spec := spec.Scaled(0.0625)
		for _, frameCap := range []int{97, 1024} {
			libA := NewLibrary(spec, 7)
			libB := NewLibrary(spec, 7)
			want := drainNext(t, NewGenerator(libA, 0, 7), n)
			got := drainFrames(t, NewGenerator(libB, 0, 7), n, frameCap)
			recordsEqual(t, spec.Name, want, got)
		}
	}
}

// TestReadFrameMatchesNextScenarios runs the equivalence property over
// the whole built-in scenario suite, with a frame size chosen to land
// mid-phase, at phase boundaries, and across drift sub-segments.
func TestReadFrameMatchesNextScenarios(t *testing.T) {
	const perCore = 24_000
	for _, scn := range Scenarios() {
		scn := scn.Scaled(0.0625)
		gensA, _, err := scn.Generators(11, 2, perCore)
		if err != nil {
			t.Fatalf("%s: %v", scn.Name, err)
		}
		gensB, _, err := scn.Generators(11, 2, perCore)
		if err != nil {
			t.Fatalf("%s: %v", scn.Name, err)
		}
		for core := 0; core < 2; core++ {
			want := drainNext(t, gensA[core], perCore)
			got := drainFrames(t, gensB[core], perCore, 513)
			recordsEqual(t, scn.Name, want, got)
		}
	}
}

// TestCursorReadFrameMatchesLive checks the tape fast path: frames
// decoded from a materialized tape equal the live generator's Next
// sequence, for plain specs and for a phase-structured scenario tape.
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
		want := drainNext(t, NewGenerator(lib, core, 3), perCore)
		got := drainFrames(t, tape.Cursor(core), perCore, 1000)
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
		want := drainNext(t, live[core], perCore)
		got := drainFrames(t, stape.Cursor(core), perCore, 1000)
		recordsEqual(t, "tape phase-flip", want, got)
	}
}

// TestScenarioFrameAtPhaseMark fills frames whose boundaries land
// exactly on, just before, and just after a phase boundary; the record
// sequence must match Next in all three alignments.
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
		want := drainNext(t, ga[0], perCore)
		got := drainFrames(t, gb[0], perCore, frameCap)
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

	// A dry source must not burn the remaining budget (mirrors Next).
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

// TestFileReaderReadFrame checks the batched file decode against Next,
// and that a truncated file still yields the complete leading records.
func TestFileReaderReadFrame(t *testing.T) {
	spec, err := ByName("web-zeus")
	if err != nil {
		t.Fatal(err)
	}
	spec = spec.Scaled(0.0625)
	lib := NewLibrary(spec, 2)
	recs := Capture(NewGenerator(lib, 0, 2), 3000)

	var buf bytes.Buffer
	if err := WriteAll(&buf, recs); err != nil {
		t.Fatal(err)
	}
	fileBytes := buf.Bytes()

	frA, err := NewFileReader(bytes.NewReader(fileBytes))
	if err != nil {
		t.Fatal(err)
	}
	frB, err := NewFileReader(bytes.NewReader(fileBytes))
	if err != nil {
		t.Fatal(err)
	}
	want := drainNext(t, frA, len(recs))
	got := drainFrames(t, frB, len(recs), 700)
	recordsEqual(t, "file", want, got)

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

// TestFillFrameGenericFallback exercises the Next-loop path used for
// external generators that do not implement FrameReader.
func TestFillFrameGenericFallback(t *testing.T) {
	n := 0
	gen := Func(func(r *Record) bool {
		if n >= 130 {
			return false
		}
		r.PC = uint32(n)
		r.Block = uint64(n) * 7
		r.Instrs = 2
		r.Work = 3
		r.Dep = n%2 == 1
		n++
		return true
	})
	f := NewFrameCap(100)
	if got := FillFrame(gen, f); got != 100 {
		t.Fatalf("first generic fill = %d, want 100", got)
	}
	if got := FillFrame(gen, f); got != 30 {
		t.Fatalf("second generic fill = %d, want 30", got)
	}
	if got := FillFrame(gen, f); got != 0 {
		t.Fatalf("dry generic fill = %d, want 0", got)
	}
}
