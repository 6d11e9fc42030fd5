package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"

	"stms/internal/ckpt"
	"stms/internal/trace"
)

// Identity is everything that determines a run's Results, encoded once
// with ckpt.Encoder: the trace (source, scaled spec or scaled scenario
// key, seed, cores, warm + measure budget), then the mode, Config, the
// fully dereferenced PrefSpec and the Sampling plan. Structs are written
// leaf by leaf in declaration order, pointers as a presence flag before
// the pointee, so any field change changes every key;
// TestIdentityKeyGolden pins the encoding, and a change to it must bump
// lab's manifest version.
type Identity struct {
	enc    []byte
	fields []idField // each leaf's dotted name and end offset in enc
	trace  int       // end offset of the trace part
}

type idField struct {
	name string
	end  int
}

// NewIdentity returns the identity of a run of in under mode, cfg, ps
// and smp. A plan of at most one window is exact and encodes as the
// zero plan; a sampled plan encodes as mode "sampled".
func NewIdentity(mode Mode, cfg Config, in Input, ps PrefSpec, smp Sampling) Identity {
	return identityOf(mode.String(), in.source(), cfg, ps, smp)
}

func identityOf(mode string, src ckptSrc, cfg Config, ps PrefSpec, smp Sampling) Identity {
	if smp.Windows > 1 {
		mode = "sampled"
	} else {
		smp = Sampling{}
	}
	spec, scn := trace.Spec{}, ""
	switch src.kind {
	case "spec":
		spec = src.spec.Scaled(cfg.Scale)
	case "tape":
		spec = src.spec
	case "scenario":
		scn = src.scn.Scaled(cfg.Scale).Key()
	}
	w := idWriter{enc: ckpt.NewEncoder()}
	w.put("source", src.kind)
	w.put("spec", spec)
	w.put("scenario", scn)
	w.put("seed", cfg.Seed)
	w.put("cores", cfg.Cores)
	w.put("records", cfg.WarmRecords+cfg.MeasureRecords)
	w.id.trace = len(w.enc.Payload())
	w.put("mode", mode)
	w.put("cfg", cfg)
	w.put("pref", ps)
	w.put("sampling", smp)
	w.id.enc = w.enc.Payload()
	return w.id
}

// idWriter encodes values leaf by leaf, naming each leaf.
type idWriter struct {
	enc *ckpt.Encoder
	id  Identity
}

func (w *idWriter) put(name string, v any) { w.value(name, reflect.ValueOf(v)) }

func (w *idWriter) value(name string, v reflect.Value) {
	switch {
	case v.Kind() == reflect.Struct:
		for i := range v.NumField() {
			w.value(name+"."+v.Type().Field(i).Name, v.Field(i))
		}
		return
	case v.Kind() == reflect.Pointer:
		w.enc.Bool(!v.IsNil())
		w.mark(name)
		if !v.IsNil() {
			w.value(name, v.Elem())
		}
		return
	case v.CanInt():
		w.enc.I64(v.Int())
	case v.CanUint():
		w.enc.U64(v.Uint())
	case v.CanFloat():
		w.enc.F64(v.Float())
	case v.Kind() == reflect.Bool:
		w.enc.Bool(v.Bool())
	case v.Kind() == reflect.String:
		w.enc.String(v.String())
	default:
		panic(fmt.Sprintf("sim: identity field %s has unencodable kind %s", name, v.Kind()))
	}
	w.mark(name)
}

func (w *idWriter) mark(name string) {
	w.id.fields = append(w.id.fields, idField{name, len(w.enc.Payload())})
}

// Key returns the hex SHA-256 of the whole identity.
func (id Identity) Key() string { return digest(id.enc) }

// TraceKey returns the hex SHA-256 of the trace part alone, which
// every variant and mode over the same records shares: it groups
// lockstep cells and routes cells to workers by affinity.
func (id Identity) TraceKey() string { return digest(id.enc[:id.trace]) }

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Check returns nil when other is the same identity, and otherwise an
// error naming the first field, in encoding order, that differs.
func (id Identity) Check(other Identity) error {
	if bytes.Equal(id.enc, other.enc) {
		return nil
	}
	start := 0
	for i, f := range id.fields {
		if i == len(other.fields) || other.fields[i] != f || !bytes.Equal(id.enc[start:f.end], other.enc[start:f.end]) {
			return fmt.Errorf("sim: run identity differs at %s", f.name)
		}
		start = f.end
	}
	return fmt.Errorf("sim: run identity differs at %s", other.fields[len(id.fields)].name)
}
