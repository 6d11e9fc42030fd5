package trace

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadTape feeds arbitrary bytes to the tape container parser. It
// must never panic, and every allocation must be bounded by the input
// length (attacker-declared counts are cross-checked against the bytes
// actually present before anything is sized from them). Accepted tapes
// must round-trip: re-encoding yields the identical file.
func FuzzReadTape(f *testing.F) {
	spec, err := ByName("web-apache")
	if err != nil {
		f.Fatal(err)
	}
	tape := NewTape(spec.Scaled(0.01), 7, 2, 96)
	var buf bytes.Buffer
	if err := WriteTape(&buf, tape); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:16])
	corrupt := bytes.Clone(valid)
	corrupt[len(corrupt)/2] ^= 0x10
	f.Add(corrupt)
	f.Add(shortSegmentTape(valid))
	f.Add([]byte("STMSTAPE"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadTape(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteTape(&out, got); err != nil {
			t.Fatalf("accepted tape failed to re-encode: %v", err)
		}
		again, err := ReadTape(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded tape failed to re-read: %v", err)
		}
		if again.Cores() != got.Cores() || again.PerCore() != got.PerCore() || again.Seed() != got.Seed() {
			t.Fatalf("tape identity changed across round-trip")
		}
		// Every accepted tape must be fully walkable: decode all cores
		// to the end without panicking.
		var rec Record
		for c := 0; c < got.Cores(); c++ {
			cur := got.Cursor(c)
			for n := uint64(0); cur.Next(&rec); n++ {
				if n > got.Len(c) {
					t.Fatalf("core %d cursor ran past declared length %d", c, got.Len(c))
				}
			}
		}
	})
}

// FuzzParseScenario feeds arbitrary bytes to the scenario JSON parser:
// no panic, and everything accepted must validate and survive a
// marshal/parse round-trip with its identity key intact.
func FuzzParseScenario(f *testing.F) {
	spec, err := ByName("web-apache")
	if err != nil {
		f.Fatal(err)
	}
	scn := Sequence("fuzz-seed", Phase{Spec: spec, Records: 1000}, Phase{Mix: []Spec{spec}})
	b, err := scn.MarshalJSON()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(b))
	f.Add(`{"name":"x","version":1}`)
	f.Add(`{"version":99}`)
	f.Add(`{`)
	f.Add(``)

	f.Fuzz(func(t *testing.T, data string) {
		scn, err := ParseScenario(strings.NewReader(data))
		if err != nil {
			return
		}
		if err := scn.Validate(); err != nil {
			t.Fatalf("accepted scenario fails validation: %v", err)
		}
		b, err := scn.MarshalJSON()
		if err != nil {
			t.Fatalf("accepted scenario failed to marshal: %v", err)
		}
		again, err := ParseScenario(bytes.NewReader(b))
		if err != nil {
			t.Fatalf("re-marshaled scenario failed to parse: %v", err)
		}
		if again.Key() != scn.Key() {
			t.Fatalf("scenario identity changed across round-trip")
		}
	})
}
