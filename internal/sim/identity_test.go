package sim

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"stms/internal/core"
	"stms/internal/cpu"
	"stms/internal/dram"
	"stms/internal/prefetch"
	"stms/internal/prefetch/stride"
	"stms/internal/trace"
)

// idInputs is everything a cell's identity is made of besides its mode.
// Field names are the identity's own field-name prefixes.
type idInputs struct {
	Spec     trace.Spec
	Cfg      Config
	Pref     PrefSpec
	Sampling Sampling
}

// fixedInputs is one fixed cell written out in full, so that the
// golden key below pins the encoding and nothing else: a change to a
// workload's calibration or to a default configuration does not move
// it. Scale 1 keeps every spec field visible in the scaled spec, and
// the sampled plan and both prefetcher overrides make every field of
// Sampling, core.Config and prefetch.EngineConfig reachable.
func fixedInputs() idInputs {
	return idInputs{
		Spec: trace.Spec{
			Name: "golden", Class: trace.OLTP,
			Streams: 1000, LenMin: 2, LenMax: 500, LenAlpha: 1.1, ZipfS: 0.5,
			ReplayMin: 0.8, SkipProb: 0.01, ChurnEvery: 300,
			NoiseInChase: 0.05, ScanProb: 0.02, NoiseProb: 0.1,
			ScanBurst: 32, ScanStreams: 2, DepChase: 0.5, DepNoise: 0.1,
			GapInstrs: 600, GapWork: 600, MemInstrs: 10, MemWork: 5,
			BurstMean: 1.5, BurstMax: 4, WorkJitter: 0.2, HotBlocks: 64, DirtyFrac: 0.3,
		},
		Cfg: Config{
			Cores: 4, L1Bytes: 64 << 10, L1Assoc: 2, L2Bytes: 8 << 20, L2Assoc: 16, L2MSHRs: 64,
			L1HitCycles: 2, L2HitCycles: 20, PBHitCycles: 4,
			DRAM:   dram.Config{LatencyCycles: 180, XferCycles: 9},
			Core:   cpu.Config{ROB: 96, Quantum: 256},
			Stride: stride.Config{Entries: 16, Degree: 4, MinConfidence: 2},
			Scale:  1, Seed: 42, WarmRecords: 1000, MeasureRecords: 2000,
		},
		Pref: PrefSpec{
			Kind: STMS, MaxDepth: 8, HistoryEntries: 100, IndexEntries: 200, SampleProb: 0.25,
			STMSCfg: &core.Config{Cores: 4, HistoryBytesPerCore: 1 << 20, IndexBytes: 2 << 20,
				BucketWays: 12, SampleProb: 0.125, BucketBufferBytes: 8 << 10, Seed: 1, OpenProbeCap: 3},
			Engine: &prefetch.EngineConfig{Cores: 4, BufferBlocks: 32, QueueCap: 48, LowWater: 8,
				Chunk: 12, AbandonAfter: 4, AdoptAfter: 2, MaxDepth: 8, InitialCredit: 8, CreditPerHit: 2},
		},
		Sampling: Sampling{Windows: 4, Warmup: 100, FuncWarmup: 200, Confidence: 0.9},
	}
}

func (x idInputs) identity() Identity {
	return NewIdentity(Timed, x.Cfg, FromSpec(x.Spec), x.Pref, x.Sampling)
}

// leafPaths lists the dotted path of every leaf field under t,
// following pointers.
func leafPaths(t reflect.Type, prefix string) []string {
	if t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	if t.Kind() != reflect.Struct {
		return []string{prefix}
	}
	var out []string
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		p := f.Name
		if prefix != "" {
			p = prefix + "." + f.Name
		}
		out = append(out, leafPaths(f.Type, p)...)
	}
	return out
}

// bump changes the leaf at path in v (a struct value) to another value.
func bump(t *testing.T, v reflect.Value, path string) {
	for _, name := range strings.Split(path, ".") {
		if v.Kind() == reflect.Pointer {
			v = v.Elem()
		}
		v = v.FieldByName(name)
	}
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 0.5)
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.String:
		v.SetString(v.String() + "x")
	default:
		t.Fatalf("%s: no mutation for kind %s", path, v.Kind())
	}
}

// TestIdentityEncodesEveryField walks every exported field of
// trace.Spec, Config (with its nested dram, cpu and stride configs),
// PrefSpec (with core.Config and prefetch.EngineConfig behind its
// pointers) and Sampling, changes it alone, and requires the identity
// to change and Check to name that field. No field is excluded: each
// one can change a run's Results, so each must split memo entries. A
// new field of a kind the encoder cannot write fails here too.
func TestIdentityEncodesEveryField(t *testing.T) {
	base := fixedInputs().identity()
	// Fields whose change shows first at another name: seed, cores and
	// the record budget lead the trace part, and Scale rescales the
	// spec before the config is reached.
	firstAt := map[string]string{
		"Cfg.Seed": "seed", "Cfg.Cores": "cores",
		"Cfg.WarmRecords": "records", "Cfg.MeasureRecords": "records",
		"Cfg.Scale": "spec.Streams",
	}
	paths := leafPaths(reflect.TypeOf(idInputs{}), "")
	for _, p := range []string{"Spec.DirtyFrac", "Cfg.DRAM.XferCycles", "Cfg.Core.Quantum",
		"Cfg.Stride.MinConfidence", "Pref.STMSCfg.OpenProbeCap", "Pref.Engine.CreditPerHit", "Sampling.Confidence"} {
		if !slices.Contains(paths, p) {
			t.Fatalf("leaf %s not walked", p)
		}
	}
	for _, path := range paths {
		x := fixedInputs()
		bump(t, reflect.ValueOf(&x).Elem(), path)
		err := base.Check(x.identity())
		if err == nil {
			t.Errorf("%s is not part of the run identity", path)
			continue
		}
		want := firstAt[path]
		if want == "" {
			head, rest, _ := strings.Cut(path, ".")
			want = strings.ToLower(head) + "." + rest
		}
		if !strings.HasSuffix(err.Error(), "differs at "+want) {
			t.Errorf("changing %s: Check says %q, want it to name %s", path, err, want)
		}
		if x.identity().Key() == base.Key() {
			t.Errorf("changing %s left the key unchanged", path)
		}
	}
}

// TestIdentityKeyGolden pins the encoding. If this fails, run keys
// have changed: lab manifests written before the change no longer
// match any cell, so bump lab's manifestFormatVersion in the same
// commit and re-record the digests.
func TestIdentityKeyGolden(t *testing.T) {
	id := fixedInputs().identity()
	const (
		wantKey   = "0a23ec08ad2e44e9b82107cf0065ab5373ec3ad261236af32e34fecf5f590e50"
		wantTrace = "10e1d3df9bb5c90e4a9b283dd6113fef5cdd90ec22a24680a593e470500b0d45"
	)
	if got := id.Key(); got != wantKey {
		t.Errorf("Key() = %s, want %s", got, wantKey)
	}
	if got := id.TraceKey(); got != wantTrace {
		t.Errorf("TraceKey() = %s, want %s", got, wantTrace)
	}
}

func TestIdentityCheckNamesField(t *testing.T) {
	x := fixedInputs()
	base := x.identity()
	if err := base.Check(fixedInputs().identity()); err != nil {
		t.Fatalf("identical inputs: %v", err)
	}
	for _, c := range []struct {
		name string
		edit func(*idInputs)
	}{
		{"pref.SampleProb", func(x *idInputs) { x.Pref.SampleProb = 0.5 }},
		{"pref.STMSCfg", func(x *idInputs) { x.Pref.STMSCfg = nil }},
		{"pref.Engine.QueueCap", func(x *idInputs) { x.Pref.Engine.QueueCap = 64 }},
		{"cfg.DRAM.LatencyCycles", func(x *idInputs) { x.Cfg.DRAM.LatencyCycles = 200 }},
		{"spec.Name", func(x *idInputs) { x.Spec.Name = "gold" }},
		{"sampling.Windows", func(x *idInputs) { x.Sampling.Windows = 8 }},
	} {
		y := fixedInputs()
		c.edit(&y)
		err := base.Check(y.identity())
		if err == nil || !strings.HasSuffix(err.Error(), "differs at "+c.name) {
			t.Errorf("%s changed: Check = %v", c.name, err)
		}
		// The first difference is the same from either side.
		if err2 := y.identity().Check(base); err2 == nil || err2.Error() != err.Error() {
			t.Errorf("%s changed: reversed Check = %v, want %v", c.name, err2, err)
		}
	}
	if err := base.Check(Identity{}); err == nil {
		t.Error("the zero identity matches a real one")
	}
	if err := (Identity{}).Check(base); err == nil {
		t.Error("a real identity matches the zero one")
	}
}

// TestIdentityTraceKeyDisambiguates: the trace key holds the trace's
// seed, core count, record budget and source, and nothing that leaves
// the records alone, so every variant column of a matrix row shares
// it.
func TestIdentityTraceKeyDisambiguates(t *testing.T) {
	spec, err := trace.ByName("web-apache")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Seed, cfg.Cores, cfg.WarmRecords, cfg.MeasureRecords = 1, 4, 400, 600
	key := func(cfg Config, in Input) string {
		return NewIdentity(Timed, cfg, in, PrefSpec{}, Sampling{}).TraceKey()
	}
	base := key(cfg, FromSpec(spec))
	for _, c := range []struct {
		what string
		edit func(*Config)
	}{
		{"seed", func(c *Config) { c.Seed = 2 }},
		{"cores", func(c *Config) { c.Cores = 2 }},
		{"record budget", func(c *Config) { c.MeasureRecords = 1600 }},
		{"scale", func(c *Config) { c.Scale = 0.0625 }},
	} {
		other := cfg
		c.edit(&other)
		if key(other, FromSpec(spec)) == base {
			t.Errorf("%s not in the trace key", c.what)
		}
	}
	if key(cfg, FromScenario(trace.Stationary("w", spec))) == base {
		t.Error("a scenario and a spec share a trace key")
	}
	if len(base) != 64 {
		t.Fatalf("trace key %q is not a sha256 hex digest", base)
	}
	// Mode, configuration outside the trace, and prefetcher stay out.
	timing := cfg
	timing.L2Bytes /= 2
	for _, id := range []Identity{
		NewIdentity(Functional, cfg, FromSpec(spec), PrefSpec{}, Sampling{}),
		NewIdentity(Timed, timing, FromSpec(spec), PrefSpec{}, Sampling{}),
		NewIdentity(Timed, cfg, FromSpec(spec), PrefSpec{Kind: STMS, SampleProb: 0.5}, Sampling{}),
	} {
		if id.TraceKey() != base {
			t.Error("trace key depends on more than the trace")
		}
		if id.Key() == NewIdentity(Timed, cfg, FromSpec(spec), PrefSpec{}, Sampling{}).Key() {
			t.Error("run key ignores a difference outside the trace")
		}
	}
	for i := 0; i < 3; i++ {
		if key(cfg, FromSpec(spec)) != base {
			t.Fatal("trace key not deterministic")
		}
	}
}

// TestIdentityExactPlansShareKey: a plan of at most one window is an
// exact run, whatever its other fields, and a sampled plan is not.
func TestIdentityExactPlansShareKey(t *testing.T) {
	x := fixedInputs()
	exact := NewIdentity(Timed, x.Cfg, FromSpec(x.Spec), x.Pref, Sampling{})
	for _, smp := range []Sampling{{Windows: 1, Warmup: 9}, {Confidence: 0.5}} {
		if err := exact.Check(NewIdentity(Timed, x.Cfg, FromSpec(x.Spec), x.Pref, smp)); err != nil {
			t.Errorf("exact plan %+v: %v", smp, err)
		}
	}
	if exact.Key() == x.identity().Key() {
		t.Error("a sampled plan shares the exact run's key")
	}
}
