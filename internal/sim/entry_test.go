package sim

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"testing"

	"stms/internal/trace"
)

// entryConfig is the small seed-42 configuration of the entry-shape
// golden: 2000 warm-up and 6000 measured records per core, which
// splits into four sampled windows of 1500.
func entryConfig() Config {
	cfg := DefaultConfig()
	cfg.Scale = 0.0625
	cfg.Seed = 42
	cfg.WarmRecords = 2000
	cfg.MeasureRecords = 6000
	return cfg
}

// entryShapes returns one closure per way of driving the simulator,
// each yielding the JSON of what the run returns.
func entryShapes(t *testing.T) map[string]func() (any, error) {
	t.Helper()
	ctx := context.Background()
	cfg := entryConfig()
	sp := spec(t, "oltp-db2")
	scn := testScenario(t, "phase-flip")
	perCore := cfg.WarmRecords + cfg.MeasureRecords
	tape := trace.NewTape(sp.Scaled(cfg.Scale), cfg.Seed, cfg.Cores, perCore)
	scnTape := trace.NewScenarioTape(scn.Scaled(cfg.Scale), cfg.Seed, cfg.Cores, perCore)
	ps := PrefSpec{Kind: STMS, SampleProb: 0.125}
	smp := Sampling{Windows: 4}
	sources := func() SourceRun {
		srcs := make([]trace.FrameSource, cfg.Cores)
		for i := range srcs {
			srcs[i] = trace.PipelinedFrames(scnTape.CursorN(i, perCore))
		}
		return SourceRun{Spec: scnTape.Spec(), Marks: scnTape.Marks(), Sources: srcs, PerCore: perCore}
	}
	cursors := func() []trace.Generator {
		gens := make([]trace.Generator, cfg.Cores)
		for i := range gens {
			gens[i] = tape.CursorN(i, perCore)
		}
		return gens
	}
	halted := func(run func(RunOption) error) ([]byte, error) {
		var last []byte
		sink := WithCheckpointFunc(3000, func(b []byte) error { last = append(last[:0], b...); return nil })
		if err := run(sink); !errors.Is(err, ErrCheckpointed) {
			return nil, err
		}
		return last, nil
	}
	return map[string]func() (any, error){
		"timed/spec": func() (any, error) { return run1(ctx, cfg, FromSpec(sp), ps) },
		"timed/scenario": func() (any, error) {
			return run1(ctx, cfg, FromScenario(scn), ps)
		},
		"timed/tape":    func() (any, error) { return run1(ctx, cfg, FromTape(tape), ps) },
		"timed/sources": func() (any, error) { return run1(ctx, cfg, FromSources(sources()), ps) },
		"timed/generators": func() (any, error) {
			capture := SourceRun{Spec: trace.Spec{Name: "capture", DirtyFrac: 0.25}, Sources: frameSources(cursors())}
			return run1(ctx, cfg, FromSources(capture), ps)
		},
		"functional/spec": func() (any, error) { return run1(ctx, cfg, FromSpec(sp), ps, WithMode(Functional)) },
		"functional/scenario": func() (any, error) {
			return run1(ctx, cfg, FromScenario(scn), ps, WithMode(Functional))
		},
		"functional/tape": func() (any, error) { return run1(ctx, cfg, FromTape(tape), ps, WithMode(Functional)) },
		"functional/sources": func() (any, error) {
			return run1(ctx, cfg, FromSources(sources()), ps, WithMode(Functional))
		},
		"functional/group3": func() (any, error) {
			return Run(ctx, cfg, FromTape(tape), []PrefSpec{{Kind: None}, {Kind: Ideal}, ps}, WithMode(Functional))
		},
		"sampled/spec": func() (any, error) { return Sample(ctx, cfg, FromSpec(sp), ps, smp) },
		"sampled/scenario": func() (any, error) {
			return Sample(ctx, cfg, FromScenario(scn), ps, smp)
		},
		"sampled/tape": func() (any, error) { return Sample(ctx, cfg, FromTape(tape), ps, smp) },
		"resume/exact": func() (any, error) {
			data, err := halted(func(o RunOption) error {
				_, err := run1(ctx, cfg, FromSpec(sp), ps, o, WithCheckpointHalt(1))
				return err
			})
			if err != nil {
				return nil, err
			}
			return resume(ctx, data, nil)
		},
		"resume/sampled": func() (any, error) {
			data, err := halted(func(o RunOption) error {
				_, err := Sample(ctx, cfg, FromSpec(sp), ps, smp, o, WithCheckpointHalt(2))
				return err
			})
			if err != nil {
				return nil, err
			}
			return resumeSampled(ctx, data, nil)
		},
	}
}

// entryGolden pins the SHA-256 of the JSON each entry shape returns.
// Live generation and replay of the same trace agree, so the tape rows
// repeat the spec rows and the sources (a scenario tape's frames) repeat
// the scenario rows; a resumed run returns exactly what the
// uninterrupted run does, so the resume rows repeat timed/spec and
// sampled/spec.
var entryGolden = map[string]string{
	"timed/spec":          "1e494b5fab061ac3c27c3977e27eb7e003bbc4f2c681581fa048bb397ad84d82",
	"timed/scenario":      "c51175037fc6f73e271c17839384c427c9c4a50a8a3dae6ab732ddb754933fa1",
	"timed/tape":          "1e494b5fab061ac3c27c3977e27eb7e003bbc4f2c681581fa048bb397ad84d82",
	"timed/sources":       "c51175037fc6f73e271c17839384c427c9c4a50a8a3dae6ab732ddb754933fa1",
	"timed/generators":    "5d76afe749a1bdeca5baae2a150383939e8eba56bca7ca289ea6d82ad7c17c89",
	"functional/spec":     "cb68a6aefcedfe01c2de42695d7503a9d5e8a3d9e96381c53c25d551aeca71dd",
	"functional/scenario": "a58fccd8e57039a8119e061aae3d50e661449246eadfcd4d86403ceaa33d952f",
	"functional/tape":     "cb68a6aefcedfe01c2de42695d7503a9d5e8a3d9e96381c53c25d551aeca71dd",
	"functional/sources":  "a58fccd8e57039a8119e061aae3d50e661449246eadfcd4d86403ceaa33d952f",
	"functional/group3":   "d141c6a3f8cdebbd5a91f728be66c20237bf5cdeb42f09f12e33943701123d9b",
	"sampled/spec":        "ee282b752a6e4a6c7a57d2e10ec588868a1c6b4c45a10e3996439aa86cbd0fe2",
	"sampled/scenario":    "244c666cbb0e091f78e7ff66076f77a035044932fa2a79c9ac6bfe8197cbb30b",
	"sampled/tape":        "ee282b752a6e4a6c7a57d2e10ec588868a1c6b4c45a10e3996439aa86cbd0fe2",
	"resume/exact":        "1e494b5fab061ac3c27c3977e27eb7e003bbc4f2c681581fa048bb397ad84d82",
	"resume/sampled":      "ee282b752a6e4a6c7a57d2e10ec588868a1c6b4c45a10e3996439aa86cbd0fe2",
}

// TestEntryShapesGolden: every way of driving the simulator — timed
// and functional over a spec, a scenario, a tape and frame sources, a
// functional group, sampled runs and both resume paths — reproduces
// its pinned Results.
func TestEntryShapesGolden(t *testing.T) {
	for name, run := range entryShapes(t) {
		v, err := run()
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != entryGolden[name] {
			t.Errorf("%s: Results hash %s, golden %s", name, got, entryGolden[name])
		}
	}
}
