package trace

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/fnv"
	"reflect"
	"strings"
	"testing"
)

// fingerprintGen drains n records from gen into an order-sensitive
// 64-bit fingerprint.
func fingerprintGen(t *testing.T, gen Generator, n uint64) uint64 {
	t.Helper()
	h := fnv.New64a()
	recs := take(t, gen, int(n), FrameCap)
	if uint64(len(recs)) != n {
		t.Fatalf("generator ran dry at record %d of %d", len(recs), n)
	}
	buf := make([]byte, 0, 32)
	for _, rec := range recs {
		buf = buf[:0]
		buf = binary.AppendUvarint(buf, rec.Block)
		buf = binary.AppendUvarint(buf, uint64(rec.PC))
		buf = binary.AppendUvarint(buf, uint64(rec.Instrs))
		buf = binary.AppendUvarint(buf, uint64(rec.Work))
		if rec.Dep {
			buf = append(buf, 1)
		}
		h.Write(buf)
	}
	return h.Sum64()
}

func TestScenarioValidate(t *testing.T) {
	apache := mustSpec("web-apache")
	cases := []struct {
		name string
		scn  Scenario
	}{
		{"no name", Scenario{Phases: []Phase{{Spec: apache}}}},
		{"no phases", Scenario{Name: "x"}},
		{"both durations", Scenario{Name: "x", Phases: []Phase{
			{Records: 10, Frac: 0.5, Spec: apache}, {Spec: apache}}}},
		{"open middle phase", Scenario{Name: "x", Phases: []Phase{
			{Spec: apache}, {Spec: apache, Frac: 0.5}}}},
		{"frac overflow", Scenario{Name: "x", Phases: []Phase{
			{Frac: 0.7, Spec: apache}, {Frac: 0.7, Spec: apache}}}},
		{"invalid spec", Scenario{Name: "x", Phases: []Phase{{Spec: Spec{Name: "broken"}}}}},
		{"invalid mix entry", Scenario{Name: "x", Phases: []Phase{
			{Mix: []Spec{apache, {Name: "broken"}}}}}},
		{"drift on mix", Scenario{Name: "x", Phases: []Phase{
			{Mix: []Spec{apache}, DriftTo: &apache, Frac: 0.5}, {Spec: apache}}}},
		{"open drift", Scenario{Name: "x", Phases: []Phase{
			{Spec: apache, DriftTo: &apache}}}},
		{"bad version", Scenario{Version: 99, Name: "x", Phases: []Phase{{Spec: apache}}}},
	}
	for _, tc := range cases {
		if err := tc.scn.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid scenario", tc.name)
		}
	}
	for _, scn := range Scenarios() {
		if err := scn.Validate(); err != nil {
			t.Errorf("built-in %s: %v", scn.Name, err)
		}
		if _, err := ByName(scn.Name); err == nil {
			t.Errorf("built-in scenario %s collides with a workload name", scn.Name)
		}
	}
}

// TestScenarioJSONRoundTrip parses each built-in scenario back from its
// serialized form and checks the round trip at all three levels: the
// canonical identity key, the serialized bytes, and — the part that
// matters — the materialized record streams.
func TestScenarioJSONRoundTrip(t *testing.T) {
	for _, scn := range Scenarios() {
		blob, err := json.Marshal(scn)
		if err != nil {
			t.Fatalf("%s: marshal: %v", scn.Name, err)
		}
		parsed, err := ParseScenario(bytes.NewReader(blob))
		if err != nil {
			t.Fatalf("%s: parse: %v", scn.Name, err)
		}
		if parsed.Key() != scn.Key() {
			t.Fatalf("%s: identity key changed across JSON round trip", scn.Name)
		}
		reblob, err := json.Marshal(parsed)
		if err != nil {
			t.Fatalf("%s: re-marshal: %v", scn.Name, err)
		}
		if !bytes.Equal(blob, reblob) {
			t.Fatalf("%s: serialization not stable:\n%s\n%s", scn.Name, blob, reblob)
		}

		const cores, perCore = 2, 1500
		a := scn.Scaled(0.0625)
		b := parsed.Scaled(0.0625)
		ga, marksA, err := a.Generators(7, cores, perCore)
		if err != nil {
			t.Fatal(err)
		}
		gb, marksB, err := b.Generators(7, cores, perCore)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(marksA, marksB) {
			t.Fatalf("%s: phase marks differ after round trip", scn.Name)
		}
		for c := 0; c < cores; c++ {
			if fingerprintGen(t, ga[c], perCore) != fingerprintGen(t, gb[c], perCore) {
				t.Fatalf("%s: core %d records differ after JSON round trip", scn.Name, c)
			}
		}
	}
}

// TestSinglePhaseScenarioMatchesSpec is the degeneration property: a
// single-phase scenario (no mix, drift, or reseed) materializes records
// bit-identical to its plain Spec tape, across workloads and seeds.
func TestSinglePhaseScenarioMatchesSpec(t *testing.T) {
	const cores, perCore = 3, 2000
	for _, name := range []string{"web-apache", "oltp-db2", "dss-qry17", "sci-ocean"} {
		for _, seed := range []uint64{1, 42, 0xdecafbad} {
			spec, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			spec = spec.Scaled(0.0625)
			scn := Stationary(spec.Name, spec)
			plain := NewTape(spec, seed, cores, perCore)
			wrapped := NewScenarioTape(scn, seed, cores, perCore)
			if wrapped.Marks() != nil {
				t.Fatalf("%s: single-phase scenario tape has phase marks", name)
			}
			if plain.Spec() != wrapped.Spec() {
				t.Fatalf("%s: effective spec differs: %+v vs %+v", name, plain.Spec(), wrapped.Spec())
			}
			for c := 0; c < cores; c++ {
				pf := fingerprintGen(t, plain.Cursor(c), perCore)
				sf := fingerprintGen(t, wrapped.Cursor(c), perCore)
				if pf != sf {
					t.Fatalf("%s seed %d core %d: scenario tape differs from plain spec tape", name, seed, c)
				}
			}
		}
	}
}

// TestScenarioTapeMatchesLive is the golden fingerprint check for the
// whole built-in suite: tape replay must be bit-identical to live
// generation — covering multi-phase, mixed-core, drift, and reseed
// scenarios — and marks must survive the on-disk tape format.
func TestScenarioTapeMatchesLive(t *testing.T) {
	const cores, perCore = 4, 2500
	for _, scn := range Scenarios() {
		scaled := scn.Scaled(0.0625)
		live, marks, err := scaled.Generators(42, cores, perCore)
		if err != nil {
			t.Fatal(err)
		}
		tape := NewScenarioTape(scaled, 42, cores, perCore)
		if !reflect.DeepEqual(tape.Marks(), marks) {
			t.Fatalf("%s: tape marks %v != live marks %v", scn.Name, tape.Marks(), marks)
		}

		var buf bytes.Buffer
		if err := WriteTape(&buf, tape); err != nil {
			t.Fatal(err)
		}
		loaded, err := ReadTape(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(loaded.Marks(), marks) {
			t.Fatalf("%s: marks lost in tape file round trip", scn.Name)
		}
		if loaded.Scenario() == nil || loaded.Scenario().Key() != scaled.Key() {
			t.Fatalf("%s: scenario provenance lost in tape file round trip", scn.Name)
		}
		if loaded.Spec() != tape.Spec() {
			t.Fatalf("%s: effective spec changed in tape file round trip", scn.Name)
		}

		for c := 0; c < cores; c++ {
			lf := fingerprintGen(t, live[c], perCore)
			tf := fingerprintGen(t, tape.Cursor(c), perCore)
			ff := fingerprintGen(t, loaded.Cursor(c), perCore)
			if lf != tf || tf != ff {
				t.Fatalf("%s core %d: live %x, tape %x, file %x — replay not bit-identical",
					scn.Name, c, lf, tf, ff)
			}
		}
	}
}

// TestScenarioLibrarySharing asserts the invariant phase semantics rest
// on: phases with the same working set see the same streams, Reseed
// forces fresh ones.
func TestScenarioLibrarySharing(t *testing.T) {
	apache := mustSpec("web-apache").Scaled(0.0625)
	db2 := mustSpec("oltp-db2").Scaled(0.0625)

	// A/B/A: phases 1 and 3 must draw from identical stream content.
	flip := Sequence("flip",
		Phase{Records: 1000, Spec: apache},
		Phase{Records: 1000, Spec: db2},
		Phase{Spec: apache},
	)
	gens, _, err := flip.Generators(42, 1, 3000)
	if err != nil {
		t.Fatal(err)
	}
	sg := gens[0].(*scenarioGen)
	libOf := func(g Generator) *Library { return g.(*generator).lib }
	if libOf(sg.gens[0]) != libOf(sg.gens[2]) {
		t.Fatal("returning phase got a different library for the same working set")
	}
	if libOf(sg.gens[0]) == libOf(sg.gens[1]) {
		t.Fatal("different working sets share a library")
	}

	// Reseed: same spec, different streams.
	reseed := Sequence("reseed",
		Phase{Records: 1000, Spec: apache},
		Phase{Spec: apache, Reseed: 1},
	)
	gens, _, err = reseed.Generators(42, 1, 2000)
	if err != nil {
		t.Fatal(err)
	}
	sg = gens[0].(*scenarioGen)
	la, lb := libOf(sg.gens[0]), libOf(sg.gens[1])
	if la == lb {
		t.Fatal("Reseed did not fork the library")
	}
	if reflect.DeepEqual(la.streams[0], lb.streams[0]) {
		t.Fatal("Reseed produced identical stream content")
	}

	// Drift on behavioral knobs only: every step shares one library.
	noisy := apache
	noisy.NoiseProb = 0.4
	drift := Drift("d", apache, noisy, 4)
	gens, _, err = drift.Generators(42, 1, 4000)
	if err != nil {
		t.Fatal(err)
	}
	sg = gens[0].(*scenarioGen)
	for i := 1; i < len(sg.gens); i++ {
		if libOf(sg.gens[i]) != libOf(sg.gens[0]) {
			t.Fatalf("behavioral drift step %d rebuilt the library", i)
		}
	}
}

func TestLerpSpecEndpoints(t *testing.T) {
	a := mustSpec("web-apache")
	b := mustSpec("oltp-db2")
	b.Name, b.Class = a.Name, a.Class // lerp keeps a's identity fields
	if got := lerpSpec(a, b, 0); got != a {
		t.Fatalf("lerp t=0 != a:\n%+v\n%+v", got, a)
	}
	if got := lerpSpec(a, b, 1); got != b {
		t.Fatalf("lerp t=1 != b:\n%+v\n%+v", got, b)
	}
	mid := lerpSpec(a, b, 0.5)
	if mid.Streams <= min(a.Streams, b.Streams)-1 || mid.Streams >= max(a.Streams, b.Streams)+1 {
		t.Fatalf("lerp t=0.5 Streams %d outside [%d, %d]", mid.Streams, a.Streams, b.Streams)
	}
}

func TestByNameSuggestions(t *testing.T) {
	if _, err := ByName("web-apach"); err == nil {
		t.Fatal("ByName accepted a typo")
	} else {
		msg := err.Error()
		if !strings.Contains(msg, `"web-apache"`) {
			t.Fatalf("error does not suggest the nearest workload: %s", msg)
		}
		for _, name := range Names() {
			if !strings.Contains(msg, name) {
				t.Fatalf("error does not list %s: %s", name, msg)
			}
		}
	}
	// Nothing plausible: no suggestion, but still the full list.
	if _, err := ByName("zzzzzzzzzzzzzzz"); err == nil {
		t.Fatal("ByName accepted garbage")
	} else if strings.Contains(err.Error(), "did you mean") {
		t.Fatalf("implausible name still got a suggestion: %v", err)
	}

	if _, err := ScenarioByName("phase-flop"); err == nil {
		t.Fatal("ScenarioByName accepted a typo")
	} else if !strings.Contains(err.Error(), `"phase-flip"`) {
		t.Fatalf("error does not suggest the nearest scenario: %v", err)
	}
}

func TestParseScenarioRejects(t *testing.T) {
	cases := map[string]string{
		"wrong version":  `{"stms_scenario": 99, "name": "x", "phases": [{"spec": {}}]}`,
		"missing fields": `{"stms_scenario": 1}`,
		"unknown field":  `{"stms_scenario": 1, "name": "x", "bogus": true, "phases": []}`,
		"not json":       `phase-flip`,
	}
	for name, blob := range cases {
		if _, err := ParseScenario(strings.NewReader(blob)); err == nil {
			t.Errorf("%s: ParseScenario accepted %q", name, blob)
		}
	}
}
