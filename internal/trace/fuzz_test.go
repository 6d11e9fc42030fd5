package trace

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"strings"
	"testing"
)

// FuzzReadTape feeds arbitrary bytes to the tape container parser. It
// must never panic, and allocation must stay bounded by the input
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
	manyCores := bytes.Clone(valid)
	binary.LittleEndian.PutUint64(manyCores[8+2*8:], math.MaxUint16) // after magic, version, seed
	f.Add(manyCores)
	f.Add([]byte("STMSTAPE"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var got *Tape
		var err error
		if n := allocated(func() { got, err = ReadTape(bytes.NewReader(data)) }); n > 32*uint64(len(data))+1<<20 {
			t.Fatalf("ReadTape allocated %d bytes for a %d-byte input", n, len(data))
		}
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
		frame := NewFrame()
		for c := 0; c < got.Cores(); c++ {
			cur := got.Cursor(c)
			n := uint64(0)
			for k := cur.ReadFrame(frame); k > 0; k = cur.ReadFrame(frame) {
				if n += uint64(k); n > got.Len(c) {
					t.Fatalf("core %d cursor ran past declared length %d", c, got.Len(c))
				}
			}
		}
	})
}

// FuzzReadTrace feeds arbitrary bytes to the flat STMSTRC1 reader,
// through both ReadAll and record-at-a-time FileReader.ReadFrame. It
// must never panic, and allocation must stay bounded by the input,
// whatever record count the header declares. Both paths must agree on
// the records read.
func FuzzReadTrace(f *testing.F) {
	recs := []Record{
		{PC: 1, Block: 100, Dep: true, Instrs: 5, Work: 7},
		{PC: 2, Block: 1 << 40, Instrs: 9, Work: 11},
		{PC: 3, Block: 7, Dep: true, Instrs: 1, Work: 1},
	}
	var buf bytes.Buffer
	if err := WriteAll(&buf, recs); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)-5])
	f.Add(hugeCountTrace())
	f.Add([]byte("STMSTRC1"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var all []Record
		var err error
		// Records are decoded into a growing slice: at most ~4x the
		// input's record bytes, plus the buffered reader.
		if n := allocated(func() { all, err = ReadAll(bytes.NewReader(data)) }); n > 8*uint64(len(data))+1<<20 {
			t.Fatalf("ReadAll allocated %d bytes for a %d-byte input", n, len(data))
		}
		if err == nil && 16+len(all)*fileRecSize > len(data) {
			t.Fatalf("ReadAll returned %d records from %d bytes", len(all), len(data))
		}

		fr, ferr := NewFileReader(bytes.NewReader(data))
		if ferr != nil {
			if err == nil {
				t.Fatalf("ReadAll accepted a header NewFileReader rejects: %v", ferr)
			}
			return
		}
		frame := NewFrameCap(1)
		var rec Record
		n := 0
		for fr.ReadFrame(frame) > 0 {
			for i := 0; i < frame.Len(); i++ {
				frame.Record(i, &rec)
				if err == nil && rec != all[n] {
					t.Fatalf("record %d: ReadFrame %+v, ReadAll %+v", n, rec, all[n])
				}
				n++
			}
		}
		if (fr.Err() == nil) != (err == nil) || (err == nil && n != len(all)) {
			t.Fatalf("ReadFrame read %d records (err %v), ReadAll %d (err %v)", n, fr.Err(), len(all), err)
		}
	})
}

// allocated returns the bytes the heap handed out while fn ran.
func allocated(fn func()) uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	fn()
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc - before
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
