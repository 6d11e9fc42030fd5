package trace

import "testing"

// Property tests over the generator's structural invariants, checked on
// long runs of every workload.

func TestGeneratorStructuralInvariants(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			spec, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			spec = spec.Scaled(0.0625)
			lib := NewLibrary(spec, 17)
			recs := take(t, NewGenerator(lib, 0, 17), 100_000, FrameCap)
			if len(recs) != 100_000 {
				t.Fatal("generator ran dry")
			}
			burst := 0
			for i, r := range recs {
				if r.Instrs == 0 || r.Work == 0 {
					t.Fatalf("record %d has zero cost: %+v", i, r)
				}
				isCompute := r.Block >= hotBase && r.Block < noiseBase
				if isCompute {
					if r.Dep {
						t.Fatalf("compute record %d marked dependent", i)
					}
					if burst > spec.BurstMax {
						t.Fatalf("burst of %d exceeds BurstMax %d", burst, spec.BurstMax)
					}
					burst = 0
				} else {
					burst++
					if int(r.Instrs) > int(spec.GapInstrs) {
						t.Fatalf("memory record %d costs more than a gap record", i)
					}
				}
			}
		})
	}
}

func TestHotSetBounded(t *testing.T) {
	spec, _ := ByName("oltp-oracle")
	spec = spec.Scaled(0.0625)
	lib := NewLibrary(spec, 21)
	hot := map[uint64]bool{}
	for _, r := range take(t, NewGenerator(lib, 2, 21), 50_000, FrameCap) {
		if r.Block >= hotBase && r.Block < noiseBase {
			hot[r.Block] = true
		}
	}
	if len(hot) == 0 {
		t.Fatal("no compute records seen")
	}
	if len(hot) > spec.HotBlocks {
		t.Fatalf("hot set %d exceeds HotBlocks %d", len(hot), spec.HotBlocks)
	}
}

func TestNoiseNeverRepeatsInPractice(t *testing.T) {
	spec, _ := ByName("dss-qry2")
	spec = spec.Scaled(0.0625)
	lib := NewLibrary(spec, 23)
	seen := map[uint64]int{}
	for _, r := range take(t, NewGenerator(lib, 0, 23), 200_000, FrameCap) {
		if r.Block >= noiseBase {
			seen[r.Block]++
		}
	}
	repeats := 0
	for _, n := range seen {
		if n > 1 {
			repeats++
		}
	}
	// Noise draws from 2^34 blocks; repeats in 200 K draws should be
	// essentially zero.
	if repeats > 2 {
		t.Fatalf("%d noise blocks repeated", repeats)
	}
}

func TestScanRecordsAreSequentialPerPC(t *testing.T) {
	spec, _ := ByName("dss-qry17")
	spec = spec.Scaled(0.0625)
	lib := NewLibrary(spec, 29)
	last := map[uint32]uint64{}
	checked := 0
	for _, r := range take(t, NewGenerator(lib, 1, 29), 300_000, FrameCap) {
		if r.Block >= scanBase && r.Block < hotBase {
			if prev, ok := last[r.PC]; ok {
				if r.Block != prev+1 {
					t.Fatalf("scan PC %#x jumped %d -> %d", r.PC, prev, r.Block)
				}
				checked++
			}
			last[r.PC] = r.Block
		}
	}
	if checked == 0 {
		t.Fatal("no consecutive scan pairs observed")
	}
}

func TestSharedLibraryCrossCoreStreams(t *testing.T) {
	// Two cores of a commercial workload must replay overlapping stream
	// content (shared library), enabling cross-core prefetch.
	spec, _ := ByName("web-zeus")
	spec = spec.Scaled(0.0625)
	lib := NewLibrary(spec, 31)
	g0 := NewGenerator(lib, 0, 31)
	g1 := NewGenerator(lib, 1, 31)
	blocks0 := map[uint64]bool{}
	for _, r := range take(t, g0, 150_000, FrameCap) {
		if r.Block < scanBase {
			blocks0[r.Block] = true
		}
	}
	shared := 0
	for _, r := range take(t, g1, 150_000, FrameCap) {
		if r.Block < scanBase && blocks0[r.Block] {
			shared++
		}
	}
	if shared < 1000 {
		t.Fatalf("cores share only %d dataset references", shared)
	}
}
