package sim

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"runtime"
	"sync"
	"testing"
	"time"

	"stms/internal/core"
	"stms/internal/trace"
)

// groupPrefs is one variant of every Kind.
var groupPrefs = []PrefSpec{
	{Kind: None}, {Kind: Ideal}, {Kind: STMS, SampleProb: 0.125},
	{Kind: TSE}, {Kind: EBCP}, {Kind: ULMT}, {Kind: Markov},
}

type groupTape struct {
	name string
	tape *trace.Tape
	solo []Results // solo run of each groupPrefs variant
}

var groupFixture struct {
	once  sync.Once
	cfg   Config
	tapes []groupTape
}

// groupTapes returns the lockstep tests' configuration and tapes — two
// workloads and one scenario with phase marks — with every variant's
// solo run over each, computed once per test binary.
func groupTapes(t *testing.T) (Config, []groupTape) {
	t.Helper()
	f := &groupFixture
	f.once.Do(func() {
		f.cfg = scenarioTestConfig(6000, 10000)
		perCore := f.cfg.WarmRecords + f.cfg.MeasureRecords
		for _, n := range []string{"oltp-db2", "web-apache"} {
			f.tapes = append(f.tapes, groupTape{name: n, tape: trace.NewTape(spec(t, n).Scaled(f.cfg.Scale), f.cfg.Seed, f.cfg.Cores, perCore)})
		}
		scn := testScenario(t, "phase-flip").Scaled(f.cfg.Scale)
		f.tapes = append(f.tapes, groupTape{name: "phase-flip", tape: trace.NewScenarioTape(scn, f.cfg.Seed, f.cfg.Cores, perCore)})
		for k := range f.tapes {
			tt := &f.tapes[k]
			for _, ps := range groupPrefs {
				r, err := run1(nil, f.cfg, FromTape(tt.tape), ps, WithMode(Functional))
				if err != nil {
					t.Fatal(err)
				}
				tt.solo = append(tt.solo, r)
			}
		}
	})
	if len(f.tapes) != 3 || len(f.tapes[2].tape.Marks()) < 2 || len(f.tapes[2].solo) != len(groupPrefs) {
		t.Fatal("group fixture incomplete (phase-flip must carry phase boundaries)")
	}
	return f.cfg, f.tapes
}

func resultsJSON(t *testing.T, r Results) []byte {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFunctionalBaseIndependentOfVariant is the invariant lockstep
// groups rest on: whatever the prefetcher, the functional base system
// (records, L1 and L2 hits, baseline misses, frame accounting, and the
// same per phase) evolves exactly as under Kind None.
func TestFunctionalBaseIndependentOfVariant(t *testing.T) {
	_, tapes := groupTapes(t)
	for _, tt := range tapes {
		base := tt.solo[0]
		for k, r := range tt.solo[1:] {
			kind := groupPrefs[k+1].Kind
			if r.Records != base.Records || r.L1Hits != base.L1Hits || r.L2Hits != base.L2Hits ||
				r.BaselineMisses() != base.BaselineMisses() || r.Frames != base.Frames {
				t.Fatalf("%s/%s: base system diverges from Kind None: %+v vs %+v", tt.name, kind, r, base)
			}
			if len(r.Phases) != len(base.Phases) {
				t.Fatalf("%s/%s: %d phase windows, Kind None has %d", tt.name, kind, len(r.Phases), len(base.Phases))
			}
			for k, w := range r.Phases {
				b := base.Phases[k]
				if w.Records != b.Records || w.L1Hits != b.L1Hits || w.L2Hits != b.L2Hits ||
					w.CoveredFull+w.CoveredPartial+w.Uncovered != b.Uncovered {
					t.Fatalf("%s/%s: phase %d base diverges: %+v vs %+v", tt.name, kind, k, w, b)
				}
			}
		}
	}
}

// TestFunctionalGroupMatchesSolo: a mixed-kind group returns, per
// variant, the JSON of the variant's solo run (phase windows included),
// in any order and with repeated variants.
func TestFunctionalGroupMatchesSolo(t *testing.T) {
	cfg, tapes := groupTapes(t)
	for _, tt := range tapes {
		group := append([]PrefSpec{groupPrefs[2]}, groupPrefs...)
		want := append([]Results{tt.solo[2]}, tt.solo...)
		rs, err := Run(context.Background(), cfg, FromTape(tt.tape), group, WithMode(Functional))
		if err != nil {
			t.Fatal(err)
		}
		if len(rs) != len(group) {
			t.Fatalf("%s: %d results for %d variants", tt.name, len(rs), len(group))
		}
		for k, r := range rs {
			if got, w := resultsJSON(t, r), resultsJSON(t, want[k]); !bytes.Equal(got, w) {
				t.Fatalf("%s: group member %d (%s) differs from its solo run:\n%s\n%s", tt.name, k, group[k].Kind, got, w)
			}
		}
	}
}

// TestFunctionalSharedLogGroupsMatchSolo: groups whose variants share
// per-core history logs return each member's solo JSON. One is shaped
// like the benchmark's capacity sweep — three STMS variants with an
// unbounded-size history and a 64 KB, 1 MB and 8 MB index, all on one
// log per core — and one mixes idealized and TSE variants over three
// history capacities, so some logs are shared and some are not.
func TestFunctionalSharedLogGroupsMatchSolo(t *testing.T) {
	cfg, tapes := groupTapes(t)
	var capacity []PrefSpec
	for _, idx := range []uint64{64 << 10, 1 << 20, 8 << 20} {
		scfg := core.Config{Cores: cfg.Cores, HistoryBytesPerCore: 1 << 30, IndexBytes: idx,
			BucketWays: 12, SampleProb: 1, BucketBufferBytes: 8 << 10, Seed: cfg.Seed}
		capacity = append(capacity, PrefSpec{Kind: STMS, STMSCfg: &scfg})
	}
	mixed := []PrefSpec{
		{Kind: Ideal, HistoryEntries: 4096}, {Kind: Ideal}, {Kind: Ideal, HistoryEntries: 4096, IndexEntries: 2000},
		{Kind: Ideal, HistoryEntries: 1000}, {Kind: TSE, HistoryEntries: 4096},
	}
	for _, g := range []struct {
		name  string
		group []PrefSpec
		caps  int // distinct history capacities: logs per core
	}{{"capacity", capacity, 1}, {"mixed", mixed, 3}} {
		if n := len(newFunctional(cfg, tapes[0].tape.Spec(), g.group...).logs); n != g.caps*cfg.Cores {
			t.Fatalf("%s: group holds %d logs, want %d per core", g.name, n, g.caps)
		}
		for _, tt := range tapes {
			rs, err := Run(context.Background(), cfg, FromTape(tt.tape), g.group, WithMode(Functional))
			if err != nil {
				t.Fatal(err)
			}
			for k, ps := range g.group {
				solo, err := run1(nil, cfg, FromTape(tt.tape), ps, WithMode(Functional))
				if err != nil {
					t.Fatal(err)
				}
				if got, w := resultsJSON(t, rs[k]), resultsJSON(t, solo); !bytes.Equal(got, w) {
					t.Fatalf("%s/%s: member %d differs from its solo run:\n%s\n%s", g.name, tt.name, k, got, w)
				}
			}
		}
	}
}

// groupGolden pins the SHA-256 of each solo functional run's Results
// JSON over the groupTapes, as produced before runs became groups of
// one.
var groupGolden = []struct {
	tape string
	kind Kind
	hash string
}{
	{"oltp-db2", None, "8915518dd40d32b02c0338954f90ada3790bba996d6912acbc90e35970f3af3f"},
	{"oltp-db2", Ideal, "858e8bb2ae795ff42bcf6bf99228c5c6fc00816717796871f7399256e5ad8495"},
	{"oltp-db2", STMS, "d47c027fea8592172661a16189ff81c7e78d4a526451083696396683a7c3b3ee"},
	{"oltp-db2", TSE, "0ffb8c9cdd40c13857e87a5f5701b7b1019164ba1b03c5598732fdedd83c72d5"},
	{"oltp-db2", EBCP, "56eca1c1f47108f06b9d5d131b36ca7d6dd13a83a53aecfcd74819471bad3265"},
	{"oltp-db2", ULMT, "7e9047397c05646315cfe911edec12c42197fa88b4afd335219dfec65c6cb5c1"},
	{"oltp-db2", Markov, "21ac95e8e9a3072c4344c140f7e09f493a0d6f71c06e51eb34da172b51df533b"},
	{"web-apache", None, "41fe9d47134a38c66a8dd4203ac26196c9b434afc4d30643a4959958aed80396"},
	{"web-apache", Ideal, "3601ac5e9ad5327b0122e8de754cebf2db7f728c8838003060bac9d1874542ab"},
	{"web-apache", STMS, "eab9129552eace13e5e6eb25d03ecd44890c14805168b32c3c64db434fa86f93"},
	{"web-apache", TSE, "fdba7f0620e909e0f159eeaa56968b294062fb6174e5980576eddde1c7a5e4ff"},
	{"web-apache", EBCP, "4a001a4d6857fe2afe4127755bb6036642ca309378571cc8986abf83f668ea49"},
	{"web-apache", ULMT, "b25093660f9a308bd8109b2578446baa6ba8e82bc00571588680a4621d806953"},
	{"web-apache", Markov, "523b54834eadb0dd07ec60ebfb9e944d8d31491bebdbabbee10e92db25e00926"},
	{"phase-flip", None, "1ff7d4752196718b5b635cf750f18aa2b8602b733cceca9bb0148d87b32a2426"},
	{"phase-flip", Ideal, "79ef012e793a2c57735568a531f1ee59f406bce8130ace581d60cf0a086f8e16"},
	{"phase-flip", STMS, "6bd69d982e6564afe41c08f27b994538a1142f6db7d9d562426a9eaf62fe34a6"},
	{"phase-flip", TSE, "18881579dbe0d9a6a987cb92f9adf7cad56f0b1e66387a6f72e76a8166255f59"},
	{"phase-flip", EBCP, "5569f3a1cecc93e4d1cc29d8feb4fed8ef8ec93655cb17c5cd5eca27c291927d"},
	{"phase-flip", ULMT, "7c95e7e7b1d02323b35d9c567fe9a74eaa62d4fb730f4ac85f635fb16cf4c33e"},
	{"phase-flip", Markov, "17243b16499e6ecb5972a2a93ec1bb5f5be857d86364dca8c92c5634b9fb2d68"},
}

// TestFunctionalGroupOfOneGolden: a group of one — the solo tape entry
// point and a one-variant sim.Run group alike — reproduces the pinned Results.
func TestFunctionalGroupOfOneGolden(t *testing.T) {
	cfg, tapes := groupTapes(t)
	byName := make(map[string]groupTape)
	for _, tt := range tapes {
		byName[tt.name] = tt
	}
	hash := func(r Results) string {
		sum := sha256.Sum256(resultsJSON(t, r))
		return hex.EncodeToString(sum[:])
	}
	for _, g := range groupGolden {
		tt := byName[g.tape]
		if h := hash(tt.solo[g.kind]); h != g.hash {
			t.Errorf("%s/%s: solo Results hash %s, golden %s", g.tape, g.kind, h, g.hash)
		}
		rs, err := Run(context.Background(), cfg, FromTape(tt.tape), []PrefSpec{groupPrefs[g.kind]}, WithMode(Functional))
		if err != nil {
			t.Fatal(err)
		}
		if h := hash(rs[0]); h != g.hash {
			t.Errorf("%s/%s: group-of-one Results hash %s, golden %s", g.tape, g.kind, h, g.hash)
		}
	}
}

// TestFunctionalCheckpointBytesGolden pins the STMSCKPT bytes a solo
// functional STMS run writes (SHA-256 over its three checkpoints), as
// produced before runs became groups of one.
func TestFunctionalCheckpointBytesGolden(t *testing.T) {
	cfg, tapes := groupTapes(t)
	want := map[string]string{
		"oltp-db2":   "904844d999dd52aaba0d6d4f224cad54fb82ad72ab2bd9d3b0d72a79c3905fc7",
		"phase-flip": "89d4470a07389473c82ec3f7953cbe6a0cf0be679745c1ae9d75e4f0dfb473b7",
	}
	for _, tt := range tapes {
		if want[tt.name] == "" {
			continue
		}
		h := sha256.New()
		n := 0
		_, err := run1(nil, cfg, FromTape(tt.tape), PrefSpec{Kind: STMS, SampleProb: 0.125}, WithMode(Functional), WithCheckpointFunc(20000, func(b []byte) error { h.Write(b); n++; return nil }))
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); n != 3 || got != want[tt.name] {
			t.Errorf("%s: %d checkpoints hashing to %s, want 3 hashing to %s", tt.name, n, got, want[tt.name])
		}
	}
}

// TestFunctionalGroupRejects: empty groups, checkpointed groups and
// timed groups fail with errors; a group's configuration errors match the solo run's.
func TestFunctionalGroupRejects(t *testing.T) {
	cfg, tapes := groupTapes(t)
	tape := tapes[0].tape
	if _, err := Run(context.Background(), cfg, FromTape(tape), nil, WithMode(Functional)); err == nil {
		t.Fatal("empty group accepted")
	}
	two := groupPrefs[:2]
	sink := WithCheckpointFunc(1000, func([]byte) error { return nil })
	if _, err := Run(context.Background(), cfg, FromTape(tape), two, WithMode(Functional), sink); err == nil {
		t.Fatal("checkpointed group accepted")
	}
	if _, err := Run(context.Background(), cfg, FromTape(tape), two); err == nil {
		t.Fatal("timed group accepted")
	}
	bad := cfg
	bad.Cores = 0
	_, soloErr := run1(nil, bad, FromTape(tape), two[0], WithMode(Functional))
	_, groupErr := Run(context.Background(), bad, FromTape(tape), two, WithMode(Functional))
	if soloErr == nil || groupErr == nil || soloErr.Error() != groupErr.Error() {
		t.Fatalf("invalid config: solo error %v, group error %v", soloErr, groupErr)
	}
}

// TestFunctionalGroupCancel: cancelling a running group returns
// ctx.Err() and leaves no goroutines behind.
func TestFunctionalGroupCancel(t *testing.T) {
	cfg, tapes := groupTapes(t)
	tape := tapes[0].tape
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	polls := 0
	progress := func(done, total uint64) {
		if polls++; polls == 2 {
			cancel()
		}
	}
	_, err := Run(ctx, cfg, FromTape(tape), groupPrefs[:3], WithMode(Functional), WithProgress(progress))
	if err != context.Canceled || polls != 2 {
		t.Fatalf("group cancelled at poll 2 returned %v after %d polls", err, polls)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines after cancel, %d before", n, before)
	}
}
