package trace

import (
	"testing"
)

func TestSpecsValidate(t *testing.T) {
	for _, s := range Specs() {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
}

func TestByName(t *testing.T) {
	s, err := ByName("web-apache")
	if err != nil || s.Name != "web-apache" {
		t.Fatalf("ByName failed: %v", err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("expected error for unknown workload")
	}
}

func TestNameListsConsistent(t *testing.T) {
	names := map[string]bool{}
	for _, n := range Names() {
		names[n] = true
	}
	if len(names) != 9 {
		t.Fatalf("expected 9 workloads, got %d", len(names))
	}
	for _, n := range FigureEight() {
		if !names[n] {
			t.Errorf("FigureEight workload %q missing from Names", n)
		}
	}
	for _, n := range Commercial() {
		if !names[n] {
			t.Errorf("Commercial workload %q missing from Names", n)
		}
	}
	if len(FigureEight()) != 8 {
		t.Fatalf("FigureEight has %d entries", len(FigureEight()))
	}
}

func TestScaled(t *testing.T) {
	s, _ := ByName("web-apache")
	h := s.Scaled(0.125)
	if h.Streams != s.Streams/8 {
		t.Errorf("scaled streams = %d, want %d", h.Streams, s.Streams/8)
	}
	sci, _ := ByName("sci-em3d")
	hs := sci.Scaled(0.125)
	if hs.IterLen != sci.IterLen/8 {
		t.Errorf("scaled iterlen = %d", hs.IterLen)
	}
	if same := s.Scaled(1); same.Streams != s.Streams {
		t.Error("scale 1 must be identity")
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	spec, _ := ByName("oltp-db2")
	spec = spec.Scaled(0.0625)
	collect := func() []Record {
		lib := NewLibrary(spec, 7)
		out := take(t, NewGenerator(lib, 0, 7), 5000, FrameCap)
		if len(out) != 5000 {
			t.Fatal("generator ran dry")
		}
		return out
	}
	a, b := collect(), collect()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("records diverged at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestGeneratorCoresDiffer(t *testing.T) {
	spec, _ := ByName("web-apache")
	spec = spec.Scaled(0.0625)
	lib := NewLibrary(spec, 7)
	r0 := take(t, NewGenerator(lib, 0, 7), 1000, FrameCap)
	r1 := take(t, NewGenerator(lib, 1, 7), 1000, FrameCap)
	same := 0
	for i := range r0 {
		if r0[i].Block == r1[i].Block {
			same++
		}
	}
	if same > 500 {
		t.Fatalf("cores emit near-identical streams (%d/1000 equal)", same)
	}
}

func TestBurstStructure(t *testing.T) {
	spec, _ := ByName("web-apache")
	spec = spec.Scaled(0.0625)
	lib := NewLibrary(spec, 3)
	var gapRecords, memRecords int
	for _, r := range take(t, NewGenerator(lib, 0, 3), 20000, FrameCap) {
		if r.Instrs >= spec.GapInstrs/2 {
			gapRecords++
		} else {
			memRecords++
		}
	}
	if gapRecords == 0 || memRecords == 0 {
		t.Fatal("expected both gap and memory records")
	}
	got := float64(memRecords) / float64(gapRecords)
	if got < spec.BurstMean*0.8 || got > spec.BurstMean*1.2 {
		t.Errorf("memory/gap ratio %.2f deviates from BurstMean %.2f", got, spec.BurstMean)
	}
}

func TestIterStreamDisjointAcrossCores(t *testing.T) {
	spec, _ := ByName("sci-ocean")
	spec = spec.Scaled(0.0625)
	lib := NewLibrary(spec, 5)
	s0 := lib.iterStream(0)
	s1 := lib.iterStream(1)
	if len(s0) != spec.IterLen || len(s1) != spec.IterLen {
		t.Fatalf("iter stream lengths %d/%d, want %d", len(s0), len(s1), spec.IterLen)
	}
	seen := map[uint64]bool{}
	for _, b := range s0 {
		if seen[b] {
			t.Fatal("duplicate block within a core's iteration stream")
		}
		seen[b] = true
	}
	for _, b := range s1 {
		if seen[b] {
			t.Fatal("block shared across core iteration streams")
		}
	}
}

func TestIterStreamIsPermutation(t *testing.T) {
	spec, _ := ByName("sci-em3d")
	spec = spec.Scaled(0.03125)
	lib := NewLibrary(spec, 5)
	s := lib.iterStream(0)
	min, max := s[0], s[0]
	for _, b := range s {
		if b < min {
			min = b
		}
		if b > max {
			max = b
		}
	}
	if max-min != uint64(len(s)-1) {
		t.Fatalf("iteration stream is not a contiguous permutation: span %d, len %d", max-min+1, len(s))
	}
	// Shuffled: the sequence must not be sorted.
	sorted := true
	for i := 1; i < len(s); i++ {
		if s[i] < s[i-1] {
			sorted = false
			break
		}
	}
	if sorted {
		t.Fatal("iteration stream is sorted; stride prefetcher would cover it")
	}
}

func TestChurnRegeneratesStreams(t *testing.T) {
	spec, _ := ByName("dss-qry17")
	spec = spec.Scaled(0.0625)
	lib := NewLibrary(spec, 9)
	take(t, NewGenerator(lib, 0, 9), 300000, FrameCap)
	if lib.Regenerated() == 0 {
		t.Fatal("churn never regenerated a stream")
	}
}

func TestLimitGenerator(t *testing.T) {
	spec, _ := ByName("web-zeus")
	spec = spec.Scaled(0.0625)
	lib := NewLibrary(spec, 1)
	g := &Limit{Gen: NewGenerator(lib, 0, 1), N: 10}
	if n := len(take(t, g, 100, FrameCap)); n != 10 {
		t.Fatalf("limit yielded %d records", n)
	}
}

func TestLimitPreservesBudgetWhenDry(t *testing.T) {
	// A Limit over a generator that runs dry must not consume its budget
	// on failed reads: remaining-count semantics are exact for bounded
	// replay (tape cursors, file readers).
	sg := &SliceGenerator{Records: []Record{{Block: 1}, {Block: 2}}}
	l := &Limit{Gen: sg, N: 5}
	if n := len(take(t, l, 100, 1)); n != 2 {
		t.Fatalf("limit over dry generator yielded %d records, want 2", n)
	}
	if l.N != 3 {
		t.Fatalf("remaining budget = %d after dry generator, want 3", l.N)
	}
	// Repeated reads of a dry source keep the budget intact.
	f := NewFrameCap(4)
	for i := 0; i < 4; i++ {
		if l.ReadFrame(f) != 0 {
			t.Fatal("dry limit produced a record")
		}
	}
	if l.N != 3 {
		t.Fatalf("remaining budget = %d after repeated dry reads, want 3", l.N)
	}
}

func TestGeneratorInterleavingIndependent(t *testing.T) {
	// A core's record sequence must be a pure function of
	// (spec, seed, core): the same whether its siblings are consumed
	// round-robin, not at all, or in bursts. This is what lets tape
	// replay reproduce live generation bit-for-bit under the timed
	// driver's variant-dependent core interleavings.
	for _, name := range []string{"web-apache", "sci-em3d"} {
		spec, _ := ByName(name)
		spec = spec.Scaled(0.0625)
		const n = 40_000

		// Reference: core 1 consumed alone.
		lib := NewLibrary(spec, 11)
		_ = NewGenerator(lib, 0, 11) // constructed but never consumed
		want := take(t, NewGenerator(lib, 1, 11), n, FrameCap)

		// Same library consumed with heavy cross-core interleaving.
		lib2 := NewLibrary(spec, 11)
		g0 := NewGenerator(lib2, 0, 11)
		g1b := NewGenerator(lib2, 1, 11)
		for i := 0; i < n; i++ {
			take(t, g0, 3, 3)
			if got := take(t, g1b, 1, 1)[0]; got != want[i] {
				t.Fatalf("%s: core 1 record %d depends on interleaving: %+v vs %+v",
					name, i, got, want[i])
			}
		}
	}
}

func TestSliceGenerator(t *testing.T) {
	sg := &SliceGenerator{Records: []Record{{Block: 1}, {Block: 2}}}
	if r := take(t, sg, 1, 1); len(r) != 1 || r[0].Block != 1 {
		t.Fatal("first record wrong")
	}
	if r := take(t, sg, 1, 1); len(r) != 1 || r[0].Block != 2 {
		t.Fatal("second record wrong")
	}
	if r := take(t, sg, 1, 1); len(r) != 0 {
		t.Fatal("should be exhausted")
	}
}

func TestArenasDisjoint(t *testing.T) {
	// Records from the generator must stay inside known arenas, and the
	// arenas must not overlap.
	spec, _ := ByName("dss-qry2")
	spec = spec.Scaled(0.0625)
	lib := NewLibrary(spec, 13)
	for _, r := range take(t, NewGenerator(lib, 2, 13), 100000, FrameCap) {
		switch {
		case r.Block < scanBase: // dataset
		case r.Block >= scanBase && r.Block < hotBase: // scan arena
		case r.Block >= hotBase && r.Block < noiseBase: // hot arena
		case r.Block >= noiseBase && r.Block < noiseBase+noiseBlocks:
		default:
			t.Fatalf("block %#x outside all arenas", r.Block)
		}
	}
}

func TestValidationErrors(t *testing.T) {
	good, _ := ByName("web-apache")
	cases := []func(*Spec){
		func(s *Spec) { s.Name = "" },
		func(s *Spec) { s.Streams = 0 },
		func(s *Spec) { s.LenMin = 0 },
		func(s *Spec) { s.ReplayMin = 0 },
		func(s *Spec) { s.GapWork = 0 },
		func(s *Spec) { s.MemWork = 0 },
		func(s *Spec) { s.BurstMean = 0.5 },
		func(s *Spec) { s.BurstMax = 0 },
		func(s *Spec) { s.NoiseProb = 0.9; s.ScanProb = 0.2 },
	}
	for i, mutate := range cases {
		s := good
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}
