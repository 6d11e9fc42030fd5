package trace

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"
)

func TestFileRoundTrip(t *testing.T) {
	spec, _ := ByName("web-apache")
	spec = spec.Scaled(0.0625)
	lib := NewLibrary(spec, 3)
	recs := take(t, NewGenerator(lib, 0, 3), 10_000, FrameCap)

	var buf bytes.Buffer
	if err := WriteAll(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("read %d records, wrote %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d: %+v != %+v", i, got[i], recs[i])
		}
	}
}

func TestFileReaderAsGenerator(t *testing.T) {
	recs := []Record{
		{PC: 1, Block: 100, Dep: true, Instrs: 5, Work: 7},
		{PC: 2, Block: 200, Dep: false, Instrs: 9, Work: 11},
	}
	var buf bytes.Buffer
	if err := WriteAll(&buf, recs); err != nil {
		t.Fatal(err)
	}
	fr, err := NewFileReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Remaining() != 2 {
		t.Fatalf("remaining = %d", fr.Remaining())
	}
	got := take(t, fr, 3, 1)
	if fr.Err() != nil {
		t.Fatal(fr.Err())
	}
	if len(got) != 2 || got[0] != recs[0] || got[1] != recs[1] {
		t.Fatalf("got %+v", got)
	}
}

func TestFileBadMagic(t *testing.T) {
	buf := bytes.NewBufferString("NOTATRACE........")
	if _, err := NewFileReader(buf); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestFileTruncated(t *testing.T) {
	recs := []Record{{Block: 1, Instrs: 1, Work: 1}, {Block: 2, Instrs: 1, Work: 1}}
	var buf bytes.Buffer
	if err := WriteAll(&buf, recs); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-10]
	fr, err := NewFileReader(bytes.NewReader(trunc))
	if err != nil {
		t.Fatal(err)
	}
	n := len(take(t, fr, 2, 1))
	if fr.Err() == nil {
		t.Fatal("truncation not reported")
	}
	if n != 1 {
		t.Fatalf("read %d records from truncated file", n)
	}
}

func TestFileEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteAll(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("got %d records", len(got))
	}
}

// hugeCountTrace is a bare STMSTRC1 header declaring 2^40 records.
func hugeCountTrace() []byte {
	hdr := append([]byte(nil), fileMagic[:]...)
	return binary.LittleEndian.AppendUint64(hdr, 1<<40)
}

// TestReadAllHugeDeclaredCount: the header's record count is untrusted.
// A 16-byte file declaring 2^40 records once sized ReadAll's slice from
// it and died with a fatal out-of-memory error; it must fail on the
// missing records instead.
func TestReadAllHugeDeclaredCount(t *testing.T) {
	if _, err := ReadAll(bytes.NewReader(hugeCountTrace())); err == nil {
		t.Fatal("trace declaring 2^40 records with none present accepted")
	}
}

func TestFileRecordEncodingProperty(t *testing.T) {
	f := func(block uint64, pc, instrs, work uint32, dep bool) bool {
		in := Record{PC: pc, Block: block, Dep: dep, Instrs: instrs, Work: work}
		var buf bytes.Buffer
		if err := WriteAll(&buf, []Record{in}); err != nil {
			t.Fatal(err)
		}
		out, err := ReadAll(&buf)
		return err == nil && len(out) == 1 && out[0] == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
