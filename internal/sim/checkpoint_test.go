package sim

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"stms/internal/ckpt"
	"stms/internal/core"
	"stms/internal/trace"
)

// ckptConfig is a deliberately small configuration so the full
// workload × scenario × cadence sweep stays fast. Warm and measure
// windows are sized so checkpoints land on both sides of the warm
// boundary.
func ckptConfig() Config {
	cfg := DefaultConfig()
	cfg.Scale = 0.0625
	cfg.WarmRecords = 4_000
	cfg.MeasureRecords = 6_000
	return cfg
}

// ckptCadences exercises three checkpoint spacings: 1003 lands inside
// decoded frames (FrameCap is 1024) and inside every scenario phase,
// 4096 aligns with the poll stride, and 15000 crosses the warm
// boundary with only a couple of checkpoints per run.
var ckptCadences = []uint64{1003, 4096, 15000}

// runFn abstracts one run shape so the round-trip property can be
// checked uniformly across drivers and sources.
type runFn func(opts ...RunOption) (Results, error)

// checkRoundTrip proves the two checkpoint invariants for one run:
// (1) a checkpointing run is bit-identical to a non-checkpointing run
// (snapshots are pure observation), and (2) resuming from any captured
// checkpoint — a simulated kill at that exact boundary — reproduces
// the uninterrupted run bit-for-bit. Checkpoints resume through Peek
// and CheckpointDesc.Input, so the descriptor round-trip is covered too.
func checkRoundTrip(t *testing.T, run runFn, every uint64) {
	t.Helper()
	base, err := run()
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	var ckpts [][]byte
	observed, err := run(WithCheckpointFunc(every, func(data []byte) error {
		cp := make([]byte, len(data))
		copy(cp, data)
		ckpts = append(ckpts, cp)
		return nil
	}))
	if err != nil {
		t.Fatalf("checkpointing run: %v", err)
	}
	if !reflect.DeepEqual(base, observed) {
		t.Fatalf("checkpointing perturbed the run:\nbase %+v\nckpt %+v", base, observed)
	}
	if len(ckpts) == 0 {
		t.Fatalf("no checkpoints captured at cadence %d", every)
	}
	for _, k := range sampleIndices(len(ckpts)) {
		resumed, err := resume(context.Background(), ckpts[k], nil)
		if err != nil {
			t.Fatalf("resume from checkpoint %d/%d: %v", k, len(ckpts), err)
		}
		if !reflect.DeepEqual(base, resumed) {
			t.Fatalf("resume from checkpoint %d/%d diverged:\nbase    %+v\nresumed %+v", k, len(ckpts), base, resumed)
		}
	}
}

// sampleIndices picks the first, middle, and last checkpoint so every
// run validates an early kill, a mid-run kill, and a late kill without
// re-running the simulation dozens of times.
func sampleIndices(n int) []int {
	switch n {
	case 1:
		return []int{0}
	case 2:
		return []int{0, 1}
	}
	return []int{0, n / 2, n - 1}
}

// ckptVariants cycles the checkpointable prefetcher variants across
// the sweep so each is exercised against several workloads without
// multiplying the matrix.
var ckptVariants = []PrefSpec{{Kind: STMS}, {Kind: Ideal}, {Kind: None}}

func TestCheckpointResumeWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload sweep")
	}
	cfg := ckptConfig()
	for i, spec := range trace.Specs() {
		spec := spec
		ps := ckptVariants[i%len(ckptVariants)]
		every := ckptCadences[i%len(ckptCadences)]
		t.Run(spec.Name+"/timed", func(t *testing.T) {
			t.Parallel()
			checkRoundTrip(t, func(opts ...RunOption) (Results, error) {
				return run1(context.Background(), cfg, FromSpec(spec), ps, opts...)
			}, every)
		})
		t.Run(spec.Name+"/functional", func(t *testing.T) {
			t.Parallel()
			checkRoundTrip(t, func(opts ...RunOption) (Results, error) {
				return run1(context.Background(), cfg, FromSpec(spec), ps, append(opts, WithMode(Functional))...)
			}, ckptCadences[(i+1)%len(ckptCadences)])
		})
	}
}

func TestCheckpointResumeScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("full scenario sweep")
	}
	cfg := ckptConfig()
	for i, scn := range trace.Scenarios() {
		scn := scn
		ps := ckptVariants[i%len(ckptVariants)]
		every := ckptCadences[i%len(ckptCadences)]
		if i%2 == 0 {
			t.Run(scn.Name+"/timed", func(t *testing.T) {
				t.Parallel()
				checkRoundTrip(t, func(opts ...RunOption) (Results, error) {
					return run1(context.Background(), cfg, FromScenario(scn), ps, opts...)
				}, every)
			})
		} else {
			t.Run(scn.Name+"/functional", func(t *testing.T) {
				t.Parallel()
				checkRoundTrip(t, func(opts ...RunOption) (Results, error) {
					return run1(context.Background(), cfg, FromScenario(scn), ps, append(opts, WithMode(Functional))...)
				}, every)
			})
		}
	}
}

// TestCheckpointAllCadences pins one workload through every cadence on
// both drivers, including a cadence that lands inside a decoded frame
// and one inside a scenario phase.
func TestCheckpointAllCadences(t *testing.T) {
	cfg := ckptConfig()
	sp := spec(t, "oltp-db2")
	for _, every := range ckptCadences {
		every := every
		t.Run("timed", func(t *testing.T) {
			checkRoundTrip(t, func(opts ...RunOption) (Results, error) {
				return run1(context.Background(), cfg, FromSpec(sp), PrefSpec{Kind: STMS}, opts...)
			}, every)
		})
		t.Run("functional", func(t *testing.T) {
			checkRoundTrip(t, func(opts ...RunOption) (Results, error) {
				return run1(context.Background(), cfg, FromSpec(sp), PrefSpec{Kind: STMS}, append(opts, WithMode(Functional))...)
			}, every)
		})
	}
}

// TestCheckpointHaltAndFileResume simulates the scripted kill: run with
// a file destination and a halt after the second checkpoint, then
// resume from the file and compare against the uninterrupted run.
func TestCheckpointHaltAndFileResume(t *testing.T) {
	cfg := ckptConfig()
	sp := spec(t, "web-apache")
	ps := PrefSpec{Kind: STMS}
	base, err := run1(context.Background(), cfg, FromSpec(sp), ps)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.stmsckpt")
	_, err = run1(context.Background(), cfg, FromSpec(sp), ps, WithCheckpointEvery(5000, path), WithCheckpointHalt(2))
	if !errors.Is(err, ErrCheckpointed) {
		t.Fatalf("want ErrCheckpointed, got %v", err)
	}
	resumed, err := resumeFile(path)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if !reflect.DeepEqual(base, resumed) {
		t.Fatalf("killed-and-resumed run diverged:\nbase    %+v\nresumed %+v", base, resumed)
	}
}

// resumeFile continues the run whose checkpoint file is at path.
func resumeFile(path string) (Results, error) {
	data, err := ckpt.ReadFile(path)
	if err != nil {
		return Results{}, err
	}
	return resume(context.Background(), ckpt.Seal(data), nil)
}

// TestCheckpointSignal covers the graceful-shutdown path: a closed
// signal channel flushes a final checkpoint and halts; the checkpoint
// resumes to the uninterrupted result.
func TestCheckpointSignal(t *testing.T) {
	cfg := ckptConfig()
	sp := spec(t, "dss-qry17")
	ps := PrefSpec{Kind: Ideal}
	base, err := run1(context.Background(), cfg, FromSpec(sp), ps)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sig.stmsckpt")
	ch := make(chan struct{})
	close(ch)
	_, err = run1(context.Background(), cfg, FromSpec(sp), ps, WithCheckpointEvery(0, path), WithCheckpointSignal(ch))
	if !errors.Is(err, ErrCheckpointed) {
		t.Fatalf("want ErrCheckpointed, got %v", err)
	}
	resumed, err := resumeFile(path)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if !reflect.DeepEqual(base, resumed) {
		t.Fatalf("signal-checkpointed run diverged")
	}
}

// TestCheckpointTapeResume proves tape-backed runs checkpoint and
// resume with the caller-supplied tape.
func TestCheckpointTapeResume(t *testing.T) {
	cfg := ckptConfig()
	sp := spec(t, "oltp-oracle")
	ps := PrefSpec{Kind: STMS}
	total := cfg.WarmRecords + cfg.MeasureRecords
	tape := trace.NewTape(sp.Scaled(cfg.Scale), cfg.Seed, cfg.Cores, total)
	base, err := run1(context.Background(), cfg, FromTape(tape), ps)
	if err != nil {
		t.Fatal(err)
	}
	var ckpts [][]byte
	observed, err := run1(context.Background(), cfg, FromTape(tape), ps, WithCheckpointFunc(7000, func(data []byte) error {
		cp := make([]byte, len(data))
		copy(cp, data)
		ckpts = append(ckpts, cp)
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, observed) {
		t.Fatalf("checkpointing perturbed the tape run")
	}
	if len(ckpts) == 0 {
		t.Fatal("no checkpoints captured")
	}
	for _, k := range sampleIndices(len(ckpts)) {
		resumed, err := resume(context.Background(), ckpts[k], tape)
		if err != nil {
			t.Fatalf("resume %d: %v", k, err)
		}
		if !reflect.DeepEqual(base, resumed) {
			t.Fatalf("tape resume %d diverged", k)
		}
	}
	// A tape-backed checkpoint refuses the tapeless resume path.
	if _, err := resume(context.Background(), ckpts[0], nil); err == nil {
		t.Fatal("a tape-backed checkpoint resumed without its tape")
	}
}

// TestCheckpointRefusals: unsupported configurations error out up
// front instead of producing unrestorable checkpoints.
func TestCheckpointRefusals(t *testing.T) {
	cfg := ckptConfig()
	sp := spec(t, "web-apache")
	sink := WithCheckpointFunc(1000, func([]byte) error { return nil })

	if _, err := run1(context.Background(), cfg, FromSpec(sp), PrefSpec{Kind: TSE}, sink); err == nil {
		t.Fatal("TSE run accepted a checkpoint request")
	}
	scfg := core.DefaultConfig(cfg.Cores).Scaled(cfg.Scale)
	scfg.Org = core.OrgDirectMapped
	if _, err := run1(context.Background(), cfg, FromSpec(sp), PrefSpec{Kind: STMS, STMSCfg: &scfg}, sink); err == nil {
		t.Fatal("alternative index organization accepted a checkpoint request")
	}
	gens := make([]trace.Generator, cfg.Cores)
	lib := trace.NewLibrary(sp.Scaled(cfg.Scale), cfg.Seed)
	for i := range gens {
		gens[i] = &trace.Limit{Gen: trace.NewGenerator(lib, i, cfg.Seed), N: 1000}
	}
	ext := FromSources(SourceRun{Spec: trace.Spec{Name: "ext"}, Sources: frameSources(gens)})
	if _, err := run1(context.Background(), cfg, ext, PrefSpec{Kind: None}, sink); err == nil {
		t.Fatal("external-generator run accepted a checkpoint request")
	}
}

// TestCheckpointCorruptFile: a torn or bit-flipped checkpoint is
// rejected at open, never partially restored.
func TestCheckpointCorruptFile(t *testing.T) {
	cfg := ckptConfig()
	sp := spec(t, "web-zeus")
	path := filepath.Join(t.TempDir(), "c.stmsckpt")
	_, err := run1(context.Background(), cfg, FromSpec(sp), PrefSpec{Kind: None}, WithMode(Functional), WithCheckpointEvery(5000, path), WithCheckpointHalt(1))
	if !errors.Is(err, ErrCheckpointed) {
		t.Fatalf("want ErrCheckpointed, got %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	flip := make([]byte, len(data))
	copy(flip, data)
	flip[len(flip)/2] ^= 0x40
	if _, err := resume(context.Background(), flip, nil); err == nil {
		t.Fatal("bit-flipped checkpoint restored")
	}
	if _, err := resume(context.Background(), data[:len(data)-3], nil); err == nil {
		t.Fatal("truncated checkpoint restored")
	}
	if _, err := resume(context.Background(), data, nil); err != nil {
		t.Fatalf("pristine checkpoint failed to restore: %v", err)
	}
}

// TestCheckpointDescMismatch: resuming a checkpoint into a run with a
// different configuration, variant, driver, prefetcher parameters or
// trace fails fast — before any progress callback or checkpoint write.
func TestCheckpointDescMismatch(t *testing.T) {
	cfg := ckptConfig()
	sp := spec(t, "web-apache")
	var data []byte
	_, err := run1(context.Background(), cfg, FromSpec(sp), PrefSpec{Kind: None}, WithMode(Functional), WithCheckpointFunc(5000, func(d []byte) error {
		data = append([]byte(nil), d...)
		return nil
	}), WithCheckpointHalt(1))
	if !errors.Is(err, ErrCheckpointed) {
		t.Fatalf("want ErrCheckpointed, got %v", err)
	}
	if _, err := run1(context.Background(), cfg, FromSpec(sp), PrefSpec{Kind: Ideal}, WithMode(Functional), WithResume(data)); err == nil {
		t.Fatal("variant mismatch accepted")
	}
	other := cfg
	other.Seed++
	if _, err := run1(context.Background(), other, FromSpec(sp), PrefSpec{Kind: None}, WithMode(Functional), WithResume(data)); err == nil {
		t.Fatal("config mismatch accepted")
	}
	if _, err := run1(context.Background(), cfg, FromSpec(sp), PrefSpec{Kind: None}, WithResume(data)); err == nil {
		t.Fatal("driver mismatch accepted")
	}
	d, err := Peek(data)
	if err != nil {
		t.Fatal(err)
	}
	if d.Mode != "functional" || d.Source != "spec" || d.Spec == nil || d.Spec.Name != "web-apache" {
		t.Fatalf("descriptor mismatch: %+v", d)
	}

	// A timed STMS checkpoint of oltp-db2 restores cleanly into runs of
	// another workload or other STMS parameters — and would then report
	// numbers belonging to neither run — unless the full identity is
	// checked.
	db2 := spec(t, "oltp-db2")
	ps := PrefSpec{Kind: STMS, SampleProb: 0.125}
	data = nil
	_, err = run1(context.Background(), cfg, FromSpec(db2), ps, WithCheckpointFunc(5000, func(d []byte) error {
		data = append([]byte(nil), d...)
		return nil
	}), WithCheckpointHalt(1))
	if !errors.Is(err, ErrCheckpointed) {
		t.Fatalf("want ErrCheckpointed, got %v", err)
	}
	scn, err := trace.ScenarioByName("phase-flip")
	if err != nil {
		t.Fatal(err)
	}
	tape := trace.NewTape(db2.Scaled(cfg.Scale), cfg.Seed, cfg.Cores, cfg.WarmRecords+cfg.MeasureRecords)
	for _, c := range []struct {
		name string
		in   Input
		ps   PrefSpec
	}{
		{"workload", FromSpec(sp), ps},
		{"sampling probability", FromSpec(db2), PrefSpec{Kind: STMS, SampleProb: 0.5}},
		{"prefetch depth", FromSpec(db2), PrefSpec{Kind: STMS, SampleProb: 0.125, MaxDepth: 3}},
		{"source", FromTape(tape), ps},
		{"scenario", FromScenario(scn), ps},
	} {
		var calls int
		_, err := run1(context.Background(), cfg, c.in, c.ps, WithResume(data),
			WithProgress(func(uint64, uint64) { calls++ }),
			WithCheckpointFunc(1000, func([]byte) error { calls++; return nil }))
		if err == nil {
			t.Errorf("%s mismatch accepted", c.name)
		}
		if calls > 0 {
			t.Errorf("%s mismatch: %d progress callbacks or checkpoint writes before the rejection", c.name, calls)
		}
	}
	if _, err := run1(context.Background(), cfg, FromSpec(db2), ps, WithResume(data)); err != nil {
		t.Fatalf("matching resume rejected: %v", err)
	}
}
