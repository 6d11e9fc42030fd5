package trace

// Phase-structured scenarios: the workload model the stationary Table 1
// specs cannot express. A Scenario is an ordered list of phases — each a
// workload spec plus a duration — with combinators for multi-programmed
// mixes (per-core heterogeneous specs), antagonist co-runners, and
// gradual drift (parameter interpolation across a phase). Scenarios are
// what the paper's sensitivity claims need probing against: temporal
// streams repeat, decay, and break at phase boundaries, and meta-data
// recorded in one phase goes stale (or stays valid) across the next.
//
// Scenario generation is a pure function of (scenario, seed, core),
// exactly like plain Spec generation after PR 3: the per-core record
// stream is independent of consumer interleaving, per-core tape
// segments materialize in parallel, and tape replay is bit-identical to
// live generation. Two invariants make phase semantics meaningful:
//
//   - stream libraries are keyed by their content-relevant fields
//     (Streams, length distribution, ZipfS, iteration mode), so two
//     phases running the same working set — a phase-flip's A/B/A, or a
//     drift phase that only moves behavioral knobs — share literally
//     identical streams, and meta-data recorded in an early phase is
//     genuinely valid again when the working set returns;
//   - a phase can force fresh streams for an otherwise-identical spec
//     with Reseed, isolating pure meta-data staleness from statistical
//     workload change.
//
// A single-phase scenario with no mix, drift or reseed degenerates to
// its plain Spec: same library seed, same generator seeds, bit-identical
// records (asserted by TestSinglePhaseScenarioMatchesSpec).
import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"reflect"
)

// ScenarioFormatVersion is the on-disk scenario JSON format version;
// ParseScenario rejects versions it does not understand.
const ScenarioFormatVersion = 1

// Phase is one epoch of a scenario: a workload spec (or a per-core mix
// of specs) held for a duration, optionally drifting toward a second
// spec across the epoch.
type Phase struct {
	// Name labels the phase in per-phase result windows and tables.
	// Empty names default to "phaseN" at materialization.
	Name string `json:"name,omitempty"`

	// Records is the phase duration in per-core records. Exactly one of
	// Records and Frac must be set, except in the final phase, where
	// both may be zero: an open final phase runs for whatever budget
	// remains (and never runs dry, like the plain generators).
	Records uint64 `json:"records,omitempty"`

	// Frac is the phase duration as a fraction of the run's per-core
	// record budget — scenarios written with Frac adapt to any window
	// size. Fractions across a scenario must not sum past 1.
	Frac float64 `json:"frac,omitempty"`

	// Spec is the workload every core runs during the phase (uniform
	// phases). Ignored when Mix is set (and omitted from the JSON form:
	// omitzero, unlike omitempty, actually elides zero-valued structs).
	Spec Spec `json:"spec,omitzero"`

	// Mix assigns heterogeneous specs per core: core c runs
	// Mix[c % len(Mix)]. Cores running the same spec share one stream
	// library, so cross-core stream sharing (§4.2) still happens within
	// each mix group — and a later phase that hands a spec to different
	// cores (migratory threads) finds the same library content there.
	Mix []Spec `json:"mix,omitempty"`

	// DriftTo, when set, interpolates every numeric knob of Spec toward
	// it across the phase in DriftSteps equal segments — gradual
	// workload drift rather than an abrupt flip. Only uniform phases
	// can drift.
	DriftTo *Spec `json:"drift_to,omitempty"`

	// DriftSteps is the number of interpolation segments for DriftTo
	// (default 8).
	DriftSteps int `json:"drift_steps,omitempty"`

	// Reseed perturbs the phase's stream-library seed: a phase with the
	// same spec but a nonzero Reseed runs statistically identical but
	// content-fresh streams, making previously recorded meta-data
	// purely stale.
	Reseed uint64 `json:"reseed,omitempty"`
}

// Scenario is a phase-structured, possibly multi-programmed workload: an
// ordered list of phases materialized into one per-core record stream.
// Build one literally, with the combinators (Stationary, Sequence, Mix,
// Antagonist, Drift), or from JSON with ParseScenario; the built-in
// stress suite is in Scenarios.
type Scenario struct {
	// Version is the scenario file format version; MarshalJSON stamps
	// ScenarioFormatVersion, ParseScenario validates it. Zero is
	// accepted in literals.
	Version int `json:"stms_scenario"`

	// Name identifies the scenario in plans, results, and ByName-style
	// lookups. Must not collide with a workload spec name.
	Name string `json:"name"`

	// Phases run in order; see Phase for duration semantics.
	Phases []Phase `json:"phases"`
}

// PhaseMark locates one phase inside a materialized trace: the per-core
// record offset where it begins. Tapes record marks so replay can
// window statistics per phase exactly as live generation does.
type PhaseMark struct {
	Name  string `json:"name"`
	Start uint64 `json:"start"`
}

// Validate reports configuration errors in the scenario and every spec
// it references.
func (s Scenario) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("trace: scenario has no name")
	}
	if s.Version != 0 && s.Version != ScenarioFormatVersion {
		return fmt.Errorf("trace: scenario %s: unsupported format version %d (have %d)",
			s.Name, s.Version, ScenarioFormatVersion)
	}
	if len(s.Phases) == 0 {
		return fmt.Errorf("trace: scenario %s has no phases", s.Name)
	}
	var fracSum float64
	for i, p := range s.Phases {
		last := i == len(s.Phases)-1
		switch {
		case p.Records > 0 && p.Frac > 0:
			return fmt.Errorf("trace: scenario %s phase %d sets both Records and Frac", s.Name, i)
		case p.Records == 0 && p.Frac == 0 && !last:
			return fmt.Errorf("trace: scenario %s phase %d has no duration (only the final phase may be open)", s.Name, i)
		case p.Frac < 0 || p.Frac > 1:
			return fmt.Errorf("trace: scenario %s phase %d Frac %g outside (0,1]", s.Name, i, p.Frac)
		case p.DriftSteps < 0:
			return fmt.Errorf("trace: scenario %s phase %d negative DriftSteps", s.Name, i)
		}
		fracSum += p.Frac
		if len(p.Mix) > 0 {
			if p.DriftTo != nil {
				return fmt.Errorf("trace: scenario %s phase %d mixes cores and drifts; pick one", s.Name, i)
			}
			for c, spec := range p.Mix {
				if err := spec.Validate(); err != nil {
					return fmt.Errorf("scenario %s phase %d mix[%d]: %w", s.Name, i, c, err)
				}
			}
			continue
		}
		if err := p.Spec.Validate(); err != nil {
			return fmt.Errorf("scenario %s phase %d: %w", s.Name, i, err)
		}
		if p.DriftTo != nil {
			if err := p.DriftTo.Validate(); err != nil {
				return fmt.Errorf("scenario %s phase %d drift target: %w", s.Name, i, err)
			}
			if p.Records == 0 && p.Frac == 0 {
				return fmt.Errorf("trace: scenario %s phase %d drifts but is open-ended; drift needs a bounded duration", s.Name, i)
			}
		}
	}
	if fracSum > 1+1e-9 {
		return fmt.Errorf("trace: scenario %s phase fractions sum to %g > 1", s.Name, fracSum)
	}
	return nil
}

// Scaled returns a copy with Spec.Scaled applied to every phase spec,
// mix entry, and drift target.
func (s Scenario) Scaled(factor float64) Scenario {
	if factor <= 0 || factor == 1 {
		return s
	}
	out := s
	out.Phases = make([]Phase, len(s.Phases))
	for i, p := range s.Phases {
		q := p
		q.Spec = p.Spec.Scaled(factor)
		if p.DriftTo != nil {
			d := p.DriftTo.Scaled(factor)
			q.DriftTo = &d
		}
		if len(p.Mix) > 0 {
			q.Mix = make([]Spec, len(p.Mix))
			for c, spec := range p.Mix {
				q.Mix[c] = spec.Scaled(factor)
			}
		}
		out.Phases[i] = q
	}
	return out
}

// Key returns the scenario's canonical identity string: everything that
// determines its record streams, in a stable encoding. Two scenarios
// with equal keys materialize identical traces at equal (seed, cores,
// per-core budget); tape identities and the lab's memo key on it.
func (s Scenario) Key() string {
	s.Version = ScenarioFormatVersion
	b, err := json.Marshal(s)
	if err != nil {
		// Scenario fields are plain data; Marshal cannot fail on them.
		panic(fmt.Sprintf("trace: scenario key: %v", err))
	}
	return string(b)
}

// MarshalJSON stamps the format version into the standard encoding.
func (s Scenario) MarshalJSON() ([]byte, error) {
	type bare Scenario // shed the method to avoid recursion
	c := s
	c.Version = ScenarioFormatVersion
	return json.Marshal(bare(c))
}

// ParseScenario decodes and validates a scenario from its versioned
// JSON format.
func ParseScenario(r io.Reader) (Scenario, error) {
	var s Scenario
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Scenario{}, fmt.Errorf("trace: parsing scenario: %w", err)
	}
	if s.Version != ScenarioFormatVersion {
		return Scenario{}, fmt.Errorf("trace: scenario %q: format version %d, want %d",
			s.Name, s.Version, ScenarioFormatVersion)
	}
	if err := s.Validate(); err != nil {
		return Scenario{}, err
	}
	return s, nil
}

// ---------------------------------------------------------------------
// Combinators.

// Stationary wraps a plain spec as a single-phase scenario; its record
// streams are bit-identical to the spec's own.
func Stationary(name string, spec Spec) Scenario {
	return Scenario{Name: name, Phases: []Phase{{Spec: spec}}}
}

// Sequence builds a scenario from explicit phases.
func Sequence(name string, phases ...Phase) Scenario {
	return Scenario{Name: name, Phases: phases}
}

// MixOf builds a single-phase multi-programmed scenario: core c runs
// specs[c % len(specs)] for the whole run.
func MixOf(name string, specs ...Spec) Scenario {
	return Scenario{Name: name, Phases: []Phase{{Mix: specs}}}
}

// Antagonist builds a single-phase scenario where every fourth core
// (the last of each 4-core group) runs the antagonist spec and the rest
// run base — the co-runner interference pattern.
func Antagonist(name string, base, antagonist Spec) Scenario {
	return MixOf(name, base, base, base, antagonist)
}

// Drift builds a single bounded drift phase from 'from' to 'to' over
// the whole run, in steps segments (0 = default), followed by an open
// phase holding the end state.
func Drift(name string, from, to Spec, steps int) Scenario {
	return Scenario{Name: name, Phases: []Phase{
		{Name: "drift", Frac: 0.85, Spec: from, DriftTo: &to, DriftSteps: steps},
		{Name: "settled", Spec: to},
	}}
}

// ---------------------------------------------------------------------
// Materialization.

// defaultDriftSteps subdivides a drift phase when DriftSteps is unset.
const defaultDriftSteps = 8

// segment is one resolved slice of a scenario: a per-core spec
// assignment held for a bounded per-core record count (0 = unbounded
// final segment).
type segment struct {
	specs   []Spec // per core (len = cores)
	reseed  uint64
	records uint64
	salt    uint64 // generator-seed perturbation; 0 for the first segment
}

// segments resolves phases (and drift sub-segments) against a per-core
// record budget. The final segment is always unbounded so scenario
// generators, like the plain ones, never run dry; marks carry the
// nominal phase starts for stat windowing.
func (s Scenario) segments(cores int, perCore uint64) ([]segment, []PhaseMark) {
	var segs []segment
	var marks []PhaseMark
	var off uint64
	for i, p := range s.Phases {
		name := p.Name
		if name == "" {
			name = fmt.Sprintf("phase%d", i+1)
		}
		marks = append(marks, PhaseMark{Name: name, Start: off})
		records := p.Records
		if records == 0 && p.Frac > 0 {
			records = uint64(p.Frac*float64(perCore) + 0.5)
			if records == 0 {
				records = 1
			}
		}
		off += records
		specs := func(spec Spec) []Spec {
			out := make([]Spec, cores)
			for c := range out {
				if len(p.Mix) > 0 {
					out[c] = p.Mix[c%len(p.Mix)]
				} else {
					out[c] = spec
				}
			}
			return out
		}
		salt := func() uint64 { return uint64(len(segs)) * 0x94d049bb133111eb }
		switch {
		case p.DriftTo != nil:
			steps := p.DriftSteps
			if steps <= 0 {
				steps = defaultDriftSteps
			}
			if uint64(steps) > records {
				steps = int(records)
			}
			per := records / uint64(steps)
			for k := 0; k < steps; k++ {
				n := per
				if k == steps-1 {
					n = records - per*uint64(steps-1)
				}
				t := float64(k+1) / float64(steps)
				segs = append(segs, segment{
					specs:   specs(lerpSpec(p.Spec, *p.DriftTo, t)),
					reseed:  p.Reseed,
					records: n,
					salt:    salt(),
				})
			}
		default:
			segs = append(segs, segment{
				specs:   specs(p.Spec),
				reseed:  p.Reseed,
				records: records, // 0 for an open final phase
				salt:    salt(),
			})
		}
	}
	segs[len(segs)-1].records = 0 // the trace outlives any nominal end
	if len(s.Phases) == 1 {
		// A single-phase scenario is its spec; phase windows would just
		// repeat the whole-run numbers.
		marks = nil
	}
	return segs, marks
}

// lerpSpec interpolates every numeric field of a toward b by t in
// [0, 1], keeping a's name, class, and mode flags. Integers round to
// nearest so a full-length drift ends exactly at b's values.
func lerpSpec(a, b Spec, t float64) Spec {
	out := a
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	vo := reflect.ValueOf(&out).Elem()
	for i := 0; i < va.NumField(); i++ {
		switch va.Field(i).Kind() {
		case reflect.Float64:
			x, y := va.Field(i).Float(), vb.Field(i).Float()
			vo.Field(i).SetFloat(x + (y-x)*t)
		case reflect.Int:
			x, y := float64(va.Field(i).Int()), float64(vb.Field(i).Int())
			vo.Field(i).SetInt(int64(math.Round(x + (y-x)*t)))
		case reflect.Uint32, reflect.Uint64:
			x, y := float64(va.Field(i).Uint()), float64(vb.Field(i).Uint())
			vo.Field(i).SetUint(uint64(math.Round(x + (y-x)*t)))
		}
	}
	return out
}

// libFingerprint hashes the spec fields that determine stream-library
// content (the working set), ignoring behavioral knobs. Phases whose
// working sets agree — a returning phase, or drift that only moves
// behavioral parameters — hash equal and share identical streams.
func libFingerprint(s Spec) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%d|%d|%g|%g|%v|%d",
		s.Streams, s.LenMin, s.LenMax, s.LenAlpha, s.ZipfS, s.IterStream, s.IterLen)
	return h.Sum64()
}

// anchorSpec is the scenario's first per-core spec: the reference point
// for library seeding, chosen so a scenario opening with spec X builds
// X's library at the plain seed (single-phase scenarios degenerate to
// their specs exactly).
func (s Scenario) anchorSpec() Spec {
	p := s.Phases[0]
	if len(p.Mix) > 0 {
		return p.Mix[0]
	}
	return p.Spec
}

// libIdent is the comparable projection of a spec's library-determining
// fields: segments with equal idents (and reseeds) share one Library
// instance — and therefore literally identical streams — however their
// behavioral knobs differ.
type libIdent struct {
	streams, lenMin, lenMax int
	lenAlpha, zipfS         float64
	iterStream              bool
	iterLen                 int
}

func libIdentOf(s Spec) libIdent {
	return libIdent{
		streams: s.Streams, lenMin: s.LenMin, lenMax: s.LenMax,
		lenAlpha: s.LenAlpha, zipfS: s.ZipfS,
		iterStream: s.IterStream, iterLen: s.IterLen,
	}
}

// libKey identifies one shared stream library within a scenario run.
type libKey struct {
	ident  libIdent
	reseed uint64
}

// Generators materializes the scenario's per-core record streams for a
// run of perCore records per core: every library is built and every
// per-segment generator primed eagerly (in deterministic order), so the
// returned generators touch only disjoint or read-only state — safe for
// the tape builder's parallel per-core encoding. The marks locate phase
// starts for stat windowing (nil for single-phase scenarios).
func (s Scenario) Generators(seed uint64, cores int, perCore uint64) ([]Generator, []PhaseMark, error) {
	if err := s.Validate(); err != nil {
		return nil, nil, err
	}
	if cores <= 0 {
		return nil, nil, fmt.Errorf("trace: scenario %s needs cores > 0, got %d", s.Name, cores)
	}
	segs, marks := s.segments(cores, perCore)
	anchor := libFingerprint(s.anchorSpec())
	libs := make(map[libKey]*Library)
	gens := make([]*scenarioGen, cores)
	for c := range gens {
		gens[c] = &scenarioGen{
			gens: make([]Generator, len(segs)),
			lims: make([]uint64, len(segs)),
		}
	}
	for si, seg := range segs {
		for c := 0; c < cores; c++ {
			spec := seg.specs[c]
			lk := libKey{ident: libIdentOf(spec), reseed: seg.reseed}
			lib, ok := libs[lk]
			if !ok {
				// The anchor library lands on the plain seed; other
				// working sets (and Reseed'd twins) get their own
				// deterministic stream content. Identical working sets
				// in different phases share one library, so returning
				// phases find their streams — and recorded meta-data —
				// intact.
				libSeed := seed ^ libFingerprint(spec) ^ anchor ^ seg.reseed
				lib = NewLibrary(spec, libSeed)
				libs[lk] = lib
			}
			gens[c].gens[si] = newGeneratorWithSpec(lib, spec, c, seed^seg.salt)
			gens[c].lims[si] = seg.records
		}
	}
	out := make([]Generator, cores)
	for c := range gens {
		gens[c].left = gens[c].lims[0]
		out[c] = gens[c]
	}
	return out, marks, nil
}

// EffectiveSpec condenses the scenario into the single spec the
// simulator's run-level accounting needs: the scenario's name and its
// records-weighted dirty-fill fraction over a run of perCore records
// per core (cores' mix entries weighted equally). All other fields come
// from the first phase. A single-phase uniform scenario yields its spec
// with the scenario's name.
func (s Scenario) EffectiveSpec(cores int, perCore uint64) Spec {
	out := s.anchorSpec()
	out.Name = s.Name
	segs, _ := s.segments(cores, perCore)
	var wsum, dsum float64
	used := uint64(0)
	for _, seg := range segs {
		n := seg.records
		if n == 0 || used+n > perCore { // open tail: the remaining budget
			n = 0
			if perCore > used {
				n = perCore - used
			}
		}
		used += n
		var d float64
		for _, spec := range seg.specs {
			d += spec.DirtyFrac
		}
		d /= float64(len(seg.specs))
		wsum += float64(n)
		dsum += float64(n) * d
	}
	if wsum > 0 {
		out.DirtyFrac = dsum / wsum
	}
	return out
}

// scenarioGen walks one core's pre-built per-segment generators in
// order; the final segment is unbounded, so it never runs dry.
type scenarioGen struct {
	gens []Generator
	lims []uint64 // per-segment budgets; 0 = unbounded
	idx  int
	left uint64
	win  Frame // reusable sub-frame view for batched per-segment fills
}

// ReadFrame fills f across segment (and therefore phase) boundaries:
// each bounded segment contributes exactly its remaining budget through
// one sub-fill of its own generator, so the record sequence does not
// depend on where frames break. The final segment is unbounded and
// fills whatever space remains, so scenario frames, like plain workload
// frames, always fill completely.
func (g *scenarioGen) ReadFrame(f *Frame) int {
	total := 0
	for total < f.cap {
		if g.lims[g.idx] == 0 {
			g.win = f.window(total, f.cap-total)
			total += g.gens[g.idx].ReadFrame(&g.win)
			break
		}
		if g.left == 0 {
			g.idx++
			g.left = g.lims[g.idx]
			continue
		}
		want := f.cap - total
		if uint64(want) > g.left {
			want = int(g.left)
		}
		g.win = f.window(total, want)
		got := g.gens[g.idx].ReadFrame(&g.win)
		g.left -= uint64(got)
		total += got
		if got < want {
			break // segment generator ran dry (defensive; ours never do)
		}
	}
	f.n = total
	return total
}
